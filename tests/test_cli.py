"""Command line contract: exit codes, file outputs, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kricci.cli
from kricci.cli import main
from kricci.errors import DegeneracyError
from kricci.flow import FlowModel
from kricci.forms import (
    BihermitianForm,
    HermitianForm,
    b_form,
    random_bihermitian,
    random_hermitian,
)
from kricci.io import (
    FLOW_CSV_COLUMNS,
    load_report,
    load_tensor,
    read_flow_csv,
    save_json,
    save_tensor,
)
from kricci.suites import SUITES, SuiteConfig, run_suite


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_writes_forms_and_manifest(self, tmp_path):
        out = tmp_path / "forms"
        assert run_cli("gen", "--n", 2, "--count", 3, "--seed", 1, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["form-000.json", "form-001.json", "form-002.json"]
        assert manifest["shifts"] == [0.0, 0.0, 0.0]
        loaded = load_tensor(out / "form-000.json")
        assert loaded.form.n == 2

    def test_zero_count_writes_empty_manifest(self, tmp_path):
        out = tmp_path / "empty"
        assert run_cli("gen", "--count", 0, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == []

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen", "--n", 2, "--count", 2, "--seed", 7, "--out", a)
        run_cli("gen", "--n", 2, "--count", 2, "--seed", 7, "--out", b)
        for name in ("form-000.json", "form-001.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_constrained_forms_record_shifts(self, tmp_path):
        out = tmp_path / "constrained"
        code = run_cli(
            "gen", "--n", 2, "--count", 2, "--seed", 4, "--out", out,
            "--k", 2, "--bound", -3.0,
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["constraint"] == {"kind": "ric_k_upper", "k": 2, "bound": -3.0}
        assert all(shift != 0.0 for shift in manifest["shifts"])


class TestVerify:
    def test_royden_passes(self, capsys):
        assert run_cli("verify", "royden", "--n", 1, 2, "--count", 2) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_impossible_tolerance_fails(self, capsys):
        assert run_cli("verify", "royden", "--n", 2, "--count", 1, "--tol", 1e-300) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_berger_reads_the_tolerance(self, capsys):
        # The seed-1 n=3 cases deviate from their scalar curvature by 4e-17 to
        # 2e-16, inside the default 1e-12 and outside 1e-20.
        argv = ("verify", "berger", "--n", 3, "--count", 3, "--seed", 1)
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("berger: 3/3 passed")
        assert run_cli(*argv, "--tol", 1e-20) == 1
        lines = capsys.readouterr().out.splitlines()
        assert all(line.endswith("FAIL") for line in lines[:3])
        assert lines[-1].startswith("berger: 0/3 passed") and ", tol 1.0e-20," in lines[-1]

    def test_berger_prints_monte_carlo_verdict(self, capsys):
        # Suite seed 14's n=3 case misses 3 standard errors at 1e5 samples.
        argv = ("verify", "berger", "--n", 2, 3, "--count", 1, "--seed", 14)
        assert run_cli(*argv, "--samples", 100_000) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("berger-n3-000") and lines[1].endswith("PASS  mc_within_z=False")
        assert run_cli(*argv, "--samples", 1000) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith("PASS  mc_within_z=True")

    def test_berger_draws_no_monte_carlo_by_default(self, capsys):
        assert run_cli("verify", "berger", "--seed", 14, "--n", 2, 3, "--count", 1) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:2]] == ["berger-n2-000", "berger-n3-000"]
        assert all(line.endswith("PASS") for line in lines[:2])
        assert "mc_within_z" not in "".join(lines)

    @pytest.mark.parametrize(
        "argv",
        [("royden", "--n", 1, "--count", 1, "--samples", -5), ("berger", "--samples", 1)],
        ids=["royden-negative", "berger-one"],
    )
    def test_bad_sample_count_is_rejected_before_any_case(self, argv, monkeypatch, capsys):
        # Rejected by SuiteConfig at the boundary, for every suite, with the
        # message berger_check gives; no case runs.
        monkeypatch.setattr(kricci.cli, "run_suite", lambda config: pytest.fail("suite ran"))
        assert run_cli("verify", *argv) == 2
        err = capsys.readouterr().err
        assert "samples must be 0 (no Monte Carlo estimate) or at least 2" in err

    @pytest.mark.parametrize("suite, dims", [("royden", (1, 2, 3)), ("berger", (2, 3))])
    def test_default_dimensions_come_from_the_registry(self, suite, dims, capsys):
        assert run_cli("verify", suite, "--count", 1, "--samples", 1000) == 0
        case_ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()[:-1]]
        assert case_ids == [f"{suite}-n{n}-000" for n in dims]

    def test_flags_not_given_keep_the_suite_config_defaults(self, monkeypatch):
        configs = []

        def record(config):
            configs.append(config)
            return run_suite(SuiteConfig(suite=config.suite, count=0))

        monkeypatch.setattr(kricci.cli, "run_suite", record)
        assert run_cli("verify", "berger") == 0
        argv = ("--n", 4, "--k", 1, 3, "--count", 3, "--seed", 7, "--tol", 0.5, "--samples", 10)
        assert run_cli("verify", "berger", *argv) == 0
        assert configs == [
            SuiteConfig(suite="berger"),
            SuiteConfig("berger", n_values=(4,), k_values=(1, 3), count=3, seed=7,
                        tolerance=0.5, samples=10),
        ]

    def test_report_is_appended(self, tmp_path):
        report = tmp_path / "runs.json"
        run_cli("verify", "rigidity-model", "--n", 2, "--count", 1, "--out", report)
        run_cli("verify", "rigidity-model", "--n", 2, "--count", 1, "--out", report)
        payload = load_report(report)
        assert len(payload["runs"]) == 2
        assert payload["runs"][0]["summary"]["ok"] is True


class TestCertify:
    @pytest.fixture()
    def model_form_file(self, tmp_path):
        h = HermitianForm(np.eye(2))
        S = BihermitianForm(-1.0 * b_form(h).entries)
        path = tmp_path / "model.json"
        save_tensor(path, S)
        return path

    def test_satisfied_bound(self, model_form_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code = run_cli(
            "certify", model_form_file, "--k", 2, "--bound", -2.9, "--out", cert_path
        )
        assert code == 0
        assert "status=satisfied" in capsys.readouterr().out
        assert cert_path.exists()

    def test_prints_exit_reasons(self, model_form_file, capsys):
        assert run_cli("certify", model_form_file, "--k", 2, "--bound", -2.9) == 0
        assert "converged=64 small_gradient=64 stalled=0 " in capsys.readouterr().out

    def test_violated_bound(self, model_form_file, capsys):
        code = run_cli("certify", model_form_file, "--k", 2, "--bound", -3.1)
        assert code == 1
        assert "status=violated" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [("--tol", "nan"), ("--tol", "inf"), ("--tol", "-5"), ("--bound", "nan")],
        ids=["tol-nan", "tol-inf", "tol-negative", "bound-nan"],
    )
    def test_rejects_bad_tolerance_or_bound(self, model_form_file, capsys, flags):
        argv = ["certify", model_form_file, "--k", 2, "--bound", 0.0, *flags]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "status=" not in captured.out

    def test_rejects_metric_file_as_form(self, tmp_path, capsys):
        path = tmp_path / "metric.json"
        save_tensor(path, HermitianForm(np.eye(2)))
        assert run_cli("certify", path, "--bound", 0.0) == 2
        assert "bihermitian" in capsys.readouterr().err

    def test_indefinite_metric_exits_2(self, model_form_file, tmp_path, capsys, monkeypatch):
        # The metric's Cholesky factorization is its positivity proof.
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        metric = tmp_path / "indefinite.json"
        save_tensor(metric, HermitianForm(np.diag([1.0, -0.5])))
        assert run_cli("certify", model_form_file, "--metric", metric, "--k", 1) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: metric must be positive definite\n"
        assert "status=" not in captured.out


GRID = {"n": 1, "N": 8}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("flow", {"grid": GRID, "twist": 5}),
        ("flow", {"grid": [1, 8]}),
        ("flow", {"grid": GRID, "checks": [1]}),
        ("flow", {"grid": GRID, "background": {"modes": [{"k": [1, 0]}]}}),
        ("flow", {"grid": GRID, "background": {"modes": [{"k": [1.7, 0], "amp": 0.01}]}}),
        ("flow", {"grid": GRID, "background": {"modes": [{"k": [1, 0], "amp": "0.01"}]}}),
        ("flow", {"grid": GRID, "background": {"modes": [{"k": [1, 0], "amp": [0.01, True]}]}}),
        ("flow", {"grid": GRID, "background": {"modes": [{"k": [1, 0], "amp": -math.inf}]}}),
        ("flow", {"grid": GRID, "t_end": None}),
        ("flow", {"grid": GRID, "cadence": [1]}),
        ("flow", {"grid": GRID, "dt": "fast"}),
        ("flow", {"grid": GRID, "mu": [0.5]}),
        ("flow", {"grid": GRID, "twist": {"c": None}}),
        ("flow", {"grid": GRID, "checks": {"schwarz": None}}),
        ("flow", {"grid": GRID, "checks": {"schwartz": 1e-12}}),
        ("flow", {"grid": {"n": None, "N": 8}}),
        ("certify", {"kind": "bihermitian", "n": 2, "entries": 5}),
        ("certify", [1, 2]),
    ],
    ids=[
        "twist-not-object",
        "grid-not-object",
        "checks-not-object",
        "mode-without-amp",
        "mode-k-fractional",
        "mode-amp-string",
        "mode-amp-bool",
        "mode-amp-inf",
        "t_end-null",
        "cadence-list",
        "dt-string",
        "mu-list",
        "twist-c-null",
        "check-null",
        "check-unknown-key",
        "grid-n-null",
        "entries-not-list",
        "tensor-file-not-object",
    ],
)
def test_malformed_file_exits_2(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    save_json(path, payload)
    args = ["--out", tmp_path / "out"] if command == "flow" else ["--bound", 0.0]
    assert run_cli(command, path, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


# A one-entry tensor file with a given "n": at n=1 the entries are valid.
def tensor_payload(n):
    return {"kind": "bihermitian", "n": n, "entries": [[-1.0, 0.0]]}


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("flow", {"grid": {"n": 1, "N": 8.9}, "cadence": 1.7}, "grid.N must be an integer"),
        ("flow", {"grid": GRID, "cadence": 1.7}, "cadence must be an integer"),
        ("flow", {"grid": {"n": True, "N": 8}}, "grid.n must be a number"),
        ("flow", {"grid": {"n": 1, "N": "8"}}, "grid.N must be a number"),
        ("flow", {"grid": GRID, "cadence": True}, "cadence must be a number"),
        ("flow", {"grid": GRID, "t_end": "0.1"}, "t_end must be a number"),
        ("flow", {"grid": GRID, "dt": False}, "dt must be a number"),
        ("flow", {"grid": GRID, "mu": True}, "mu must be a number"),
        ("certify", tensor_payload(True), "n must be a number"),
        ("certify", tensor_payload("1"), "n must be a number"),
        ("certify", tensor_payload(1.5), "n must be an integer"),
        ("flow", {"grid": GRID, "mu": math.nan}, "mu must be finite"),
        ("flow", {"grid": GRID, "alpha": math.inf}, "alpha must be finite"),
        ("certify", {"kind": "bihermitian", "n": 1, "entries": [[math.nan, 0.0]]},
         "entries must be finite"),
    ],
    ids=[
        "N-and-cadence-fractional",
        "cadence-fractional",
        "n-bool",
        "N-string",
        "cadence-bool",
        "t_end-string",
        "dt-bool",
        "mu-bool",
        "tensor-n-bool",
        "tensor-n-string",
        "tensor-n-fractional",
        "mu-nan",
        "alpha-inf",
        "tensor-entry-nan",
    ],
)
def test_non_number_or_fractional_integer_exits_2(tmp_path, capsys, command, payload, key):
    path = tmp_path / "input.json"
    save_json(path, payload)
    args = ["--out", tmp_path / "out"] if command == "flow" else []
    assert run_cli(command, path, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {key}")
    assert not (tmp_path / "out").exists()


def test_non_finite_metric_and_field_files_exit_2(tmp_path, capsys):
    form, metric = tmp_path / "form.json", tmp_path / "metric.json"
    save_tensor(form, random_bihermitian(2, np.random.default_rng(3)))
    entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [math.inf, 0.0]]
    save_json(metric, {"kind": "hermitian", "n": 2, "entries": entries})
    assert run_cli("certify", form, "--metric", metric) == 2
    assert capsys.readouterr().err.startswith(f"error: {metric}: entries must be finite")
    field = tmp_path / "field.json"
    save_json(field, {"n": 1, "N": 8, "kind": "scalar", "values": [0.0] * 63 + [math.nan]})
    config = tmp_path / "flow.json"
    save_json(config, {"grid": GRID, "background": {"file": "field.json"}})
    assert run_cli("flow", config, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: values must be finite")


@pytest.mark.parametrize(
    "kind, values, message",
    [
        ("hermitian", [[1.0, {}]], "entries must be a flat list of 1 [re, im] pairs of numbers"),
        ("scalar", [{}] * 64, "values must be a flat list of 64 numbers"),
        ("bihermitian", [[1.0, None]], "entries must be a flat list of 1 [re, im] pairs"),
        ("scalar", [0.0] * 63, "values must be a flat list of 64 numbers"),
        ("scalar", [[0.0]] * 64, "values must be a flat list of 64 numbers"),
    ],
    ids=["tensor-entry-object", "field-value-object", "tensor-entry-null", "field-value-missing",
         "field-value-nested"],
)
def test_malformed_numeric_array_exits_2(tmp_path, capsys, kind, values, message):
    if kind == "scalar":
        path = tmp_path / "field.json"
        save_json(path, {"n": 1, "N": 8, "kind": kind, "values": values})
        config = tmp_path / "flow.json"
        save_json(config, {"grid": GRID, "background": {"file": "field.json"}})
        argv = ["flow", config, "--out", tmp_path / "out"]
    else:
        path = tmp_path / "form.json"
        save_json(path, {"kind": kind, "n": 1, "entries": values})
        argv = ["certify", path]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize(
    "header, key",
    [({"n": 1, "N": 8.5}, "N"), ({"n": True, "N": 8}, "n"), ({"n": 1, "N": "8"}, "N")],
    ids=["N-fractional", "n-bool", "N-string"],
)
def test_field_file_with_bad_integer_key_exits_2(tmp_path, capsys, header, key):
    field = tmp_path / "field.json"
    save_json(field, {**header, "kind": "scalar", "values": [0.0] * 8})
    config = tmp_path / "flow.json"
    save_json(config, {"grid": GRID, "background": {"file": "field.json"}})
    assert run_cli("flow", config, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: {key} must be")


@pytest.mark.parametrize(
    "spec, referenced, message",
    [
        ({"file": "field.json"}, [0.0] * 64, "field.json: field file must be a JSON object"),
        ({"file": 5}, None, "flow.json: potential 'file' must be a path, got 5"),
    ],
    ids=["field-file-list", "file-number"],
)
def test_malformed_potential_file_reference_exits_2(tmp_path, capsys, spec, referenced, message):
    if referenced is not None:
        save_json(tmp_path / "field.json", referenced)
    config = tmp_path / "flow.json"
    save_json(config, {"grid": GRID, "background": spec})
    assert run_cli("flow", config, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}/") and message in err
    assert not (tmp_path / "out").exists()


def test_integral_float_keys_load_as_integers(tmp_path):
    config = tmp_path / "flow.json"
    save_json(config, {"grid": {"n": 1.0, "N": 8.0}, "dt": 1, "t_end": 0.02, "cadence": 2.0})
    assert run_cli("flow", config, "--out", tmp_path / "out") == 0
    record = load_report(tmp_path / "out" / "flow_report.json")["runs"][0]
    assert record["ok"] is True


@pytest.mark.usefixtures("forbid_einsum_path")
class TestNoEinsumPathPlanning:
    """The algebraic side plans no einsum contraction path: the certifier with
    its final re-evaluation, and every lemma suite."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_certify(self, tmp_path, k):
        r = np.random.default_rng(k)
        form, metric = tmp_path / "form.json", tmp_path / "metric.json"
        save_tensor(form, random_bihermitian(3, r))
        save_tensor(metric, random_hermitian(3, r, positive=True))
        out = tmp_path / "cert.json"
        assert run_cli("certify", form, "--metric", metric, "--k", k, "--out", out) == 0
        assert out.exists()

    @pytest.mark.parametrize("suite", SUITES)
    def test_run_suite(self, suite):
        report = run_suite(SuiteConfig(suite=suite, k_values=(1, 2, 3), count=1))
        assert report.cases and report.ok


class TestFlow:
    def test_flat_run_is_all_zero_and_passes(self, tmp_path):
        config = tmp_path / "flat.json"
        save_json(
            config,
            {"grid": {"n": 1, "N": 8}, "dt": 1e-2, "t_end": 0.2, "cadence": 5},
        )
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 0
        lines = (out / "flow.csv").read_text().splitlines()
        assert lines[0] == ",".join(FLOW_CSV_COLUMNS)
        for line in lines[1:]:
            assert float(line.split(",")[1]) == 0.0
        record = load_report(out / "flow_report.json")["runs"][0]
        assert record["ok"] is True

    def test_repeated_run_writes_the_same_csv_bytes(self, tmp_path):
        # On one host and numpy build a flow repeats bit for bit.
        config = tmp_path / "flow.json"
        save_json(
            config,
            {
                "grid": {"n": 1, "N": 16, "discretization": "fd2"},
                "background": {"modes": [{"k": [1, 1], "amp": 0.01}, {"k": [1, 0], "amp": 0.005}]},
                "twist": {"u": {"modes": [{"k": [0, 1], "amp": 0.002}]}},
                "dt": 1e-3,
                "t_end": 0.01,
                "cadence": 3,
            },
        )
        csv = []
        for run in ("first", "second"):
            assert run_cli("flow", config, "--out", tmp_path / run) == 0
            csv.append((tmp_path / run / "flow.csv").read_bytes())
        assert len(csv[0].splitlines()) > 3
        assert csv[0] == csv[1]

    def test_contracting_run_reports_horizon(self, tmp_path):
        config = tmp_path / "contracting.json"
        save_json(
            config,
            {
                "grid": {"n": 1, "N": 16},
                "twist": {"c": 0.5},
                "dt": 1e-3,
                "t_end": 1.0,
                "cadence": 20,
            },
        )
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 0
        record = load_report(out / "flow_report.json")["runs"][0]
        assert record["horizon_estimate"] == pytest.approx(2.0, abs=1e-6)

    def test_malformed_config_exits_with_parse_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"grid": {"n": 1,\n "N": 8,,}\n')
        assert run_cli("flow", config, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_spectral_config_runs_on_the_spectral_grid(self, tmp_path):
        config = tmp_path / "spectral.json"
        save_json(
            config,
            {
                "grid": {"n": 2, "N": 8, "discretization": "spectral"},
                "background": {"modes": [{"k": [1, 1, 1, 0], "amp": 0.002}]},
                "dt": 1e-3,
                "t_end": 0.004,
                "cadence": 1,
            },
        )
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 0
        record = load_report(out / "flow_report.json")["runs"][0]
        assert record["discretization"] == "spectral" and record["ok"] is True

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"n": 3, "N": 8}, "complex dimension must be 1 or 2, got 3"),
            ({"n": 1, "N": 8, "discretization": "spectra"}, "discretization must be one of"),
        ],
        ids=["dimension", "discretization"],
    )
    def test_bad_grid_exits_2_naming_the_file(self, tmp_path, capsys, grid, message):
        config = tmp_path / "grid.json"
        save_json(config, {"grid": grid})
        assert run_cli("flow", config, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {config}: {message}")

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "typo.json"
        save_json(config, {"grid": {"n": 1, "N": 8}, "t_final": 0.2})
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 2
        assert "unknown flow config key 't_final'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_nested_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "typo.json"
        grid = {"n": 1, "N": 16, "discretisation": "spectral"}
        save_json(config, {"grid": grid, "twist": {"cc": 0.5}})
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: unknown key 'discretisation' under grid")
        assert not out.exists()

    def test_trace_evolution_tolerance_without_mu_exits_2(self, tmp_path, capsys):
        config = tmp_path / "no-mu.json"
        save_json(config, {"grid": {"n": 1, "N": 8}, "checks": {"trace_evolution": 1e-6}})
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: checks.trace_evolution is given")
        assert not out.exists()

    def test_trace_evolution_hypothesis_rejection_fails_run(self, tmp_path):
        config = tmp_path / "twisted.json"
        save_json(
            config,
            {
                "grid": {"n": 1, "N": 8},
                "twist": {"c": 0.5},
                "dt": 5e-3,
                "t_end": 0.1,
                "cadence": 4,
                "mu": 1.0,
            },
        )
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 1
        record = load_report(out / "flow_report.json")["runs"][0]
        entry = record["checks"]["trace_evolution"]
        assert entry["ok"] is False
        assert "Hessian" in entry["hypothesis_rejected"]


    def test_degenerate_run_records_partial_rows(self, tmp_path, capsys):
        config = tmp_path / "horizon.json"
        save_json(
            config,
            {
                "grid": {"n": 1, "N": 8},
                "twist": {"c": 2.0},
                "dt": 1e-2,
                "t_end": 1.0,
                "cadence": 50,
                "checks": {"schwarz": 1e-2, "potential_identities": 1e-2},
            },
        )
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 1
        assert "step size collapsed" in capsys.readouterr().out
        record = load_report(out / "flow_report.json")["runs"][0]
        assert record["ok"] is False
        assert record["degenerate_at"] == pytest.approx(0.5, abs=1e-2)
        assert "step size collapsed" in record["degenerate_reason"]
        assert record["t_final"] == record["degenerate_at"]
        assert sorted(record["checks"]) == [
            "potential_identities", "scalar_bound", "schwarz", "volume_bound"
        ]
        assert all("skipped" not in entry for entry in record["checks"].values())
        rows = read_flow_csv(out / "flow.csv")
        assert rows[0].t == 0.0
        assert rows[-1].t == record["degenerate_at"]
        assert len(rows) == 2 + record["steps"] // 50

    def test_degenerate_at_start_skips_centered_checks(self, tmp_path, monkeypatch):
        def always_degenerate(self, t, phi):
            raise DegeneracyError("forced failure", margin=-1.0)

        monkeypatch.setattr(FlowModel, "rhs", always_degenerate)
        config = tmp_path / "stuck.json"
        save_json(
            config,
            {
                "grid": {"n": 1, "N": 8},
                "dt": 1e-2,
                "t_end": 0.2,
                "checks": {"schwarz": 1e-2, "potential_identities": 1e-2},
            },
        )
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 1
        record = load_report(out / "flow_report.json")["runs"][0]
        assert record["degenerate_at"] == 0.0
        assert record["steps"] == 0
        for name in ("schwarz", "potential_identities"):
            entry = record["checks"][name]
            assert entry["ok"] is False
            assert entry["skipped"] == "needs 3 snapshots, the run has 1"
        assert record["checks"]["scalar_bound"]["ok"] is True
        assert len(read_flow_csv(out / "flow.csv")) == 1

    def test_degenerate_at_start_skips_trace_evolution(self, tmp_path, monkeypatch):
        # One snapshot gives no increase of sup f to bound.
        def always_degenerate(self, t, phi):
            raise DegeneracyError("forced failure", margin=-1.0)

        monkeypatch.setattr(FlowModel, "rhs", always_degenerate)
        config = tmp_path / "stuck.json"
        save_json(config, {"grid": {"n": 1, "N": 8}, "dt": 1e-2, "t_end": 0.2, "mu": 1.0})
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 1
        record = load_report(out / "flow_report.json")["runs"][0]
        assert record["degenerate_at"] == 0.0
        entry = record["checks"]["trace_evolution"]
        assert entry["ok"] is False and "max_increase" not in entry
        assert entry["skipped"] == "needs 2 snapshots, the run has 1"

    def test_two_snapshots_skip_centered_checks(self, tmp_path):
        # Two steps at cadence 50: the start and the final state only.
        config = tmp_path / "short.json"
        save_json(
            config,
            {
                "grid": {"n": 1, "N": 8},
                "dt": 1e-2,
                "t_end": 0.01,
                "cadence": 50,
                "checks": {"schwarz": 1e-2, "potential_identities": 1e-2},
            },
        )
        out = tmp_path / "out"
        assert run_cli("flow", config, "--out", out) == 1
        record = load_report(out / "flow_report.json")["runs"][0]
        assert "degenerate_at" not in record and record["steps"] >= 2
        for name in ("schwarz", "potential_identities"):
            entry = record["checks"][name]
            assert entry["ok"] is False
            assert entry["skipped"] == "needs 3 snapshots, the run has 2"
        assert len(read_flow_csv(out / "flow.csv")) == 2


class TestReportCommand:
    def test_aggregates_and_exits_by_status(self, tmp_path, capsys):
        report = tmp_path / "runs.json"
        run_cli("verify", "royden", "--n", 1, "--count", 1, "--out", report)
        assert run_cli("report", report) == 0
        assert "ok=True" in capsys.readouterr().out
        # At n=1 the enumeration and the closed form agree to the bit; at n=2
        # their roundoff residual fails a 1e-300 tolerance.
        run_cli("verify", "royden", "--n", 2, "--count", 1, "--tol", 1e-300, "--out", report)
        assert run_cli("report", report) == 1

    def test_missing_file_is_an_error(self, tmp_path):
        assert run_cli("report", tmp_path / "nope.json") == 2

    def test_json_number_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "number.json"
        path.write_text("5\n")
        assert run_cli("report", path) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: report file must be a JSON object, got int"
        )

    def test_verify_out_onto_json_number_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "number.json"
        path.write_text("5\n")
        assert run_cli("verify", "royden", "--n", 1, "--count", 1, "--out", path) == 2
        assert f"error: {path}: report file must be a JSON object" in capsys.readouterr().err
        assert path.read_text() == "5\n"

    def test_suite_record_without_worst_margin_exits_2(self, tmp_path, capsys):
        path = tmp_path / "runs.json"
        run_cli("verify", "royden", "--n", 1, "--count", 1, "--out", path)
        payload = json.loads(path.read_text())
        del payload["runs"][0]["summary"]["worst_margin"]
        save_json(path, payload)
        capsys.readouterr()
        assert run_cli("report", path) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: run 0 summary has no numeric worst_margin"
        )


class TestParserReuse:
    """main builds its parser once per process, on its first call."""

    def test_not_built_at_import(self):
        probe = "import kricci.cli as c; print(c._build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            cwd=Path(kricci.cli.__file__).resolve().parents[1],
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "0"

    def test_each_call_gets_its_own_defaults(self, tmp_path, monkeypatch, capsys):
        form = tmp_path / "model.json"
        save_tensor(form, BihermitianForm(-1.0 * b_form(HermitianForm(np.eye(2))).entries))
        config = tmp_path / "flat.json"
        save_json(config, {"grid": {"n": 1, "N": 8}, "dt": 1e-2, "t_end": 0.02, "cadence": 1})
        monkeypatch.chdir(tmp_path)

        assert run_cli("certify", form, "--k", 2, "--bound", -2.9, "--seed", 3) == 0
        parser = kricci.cli._build_parser()
        configs = []

        def record(config):
            configs.append(config)
            return run_suite(SuiteConfig(suite=config.suite, count=0))

        # Patched after the parser was built and cached: the handler still
        # looks run_suite up at call time.
        monkeypatch.setattr(kricci.cli, "run_suite", record)
        assert run_cli("verify", "royden", "--count", 1, "--samples", 10) == 0
        with pytest.raises(SystemExit) as usage:
            run_cli("verify", "no-such-suite", "--seed", 9)
        assert usage.value.code == 2
        assert run_cli("verify", "berger") == 0
        assert configs == [SuiteConfig("royden", count=1, samples=10), SuiteConfig("berger")]

        assert run_cli("flow", config) == 0
        record = load_report(tmp_path / "flow_report.json")["runs"][0]
        assert record["discretization"] == "fd2" and record["ok"] is True
        assert run_cli("certify", form, "--bound", -1.9) == 0
        assert kricci.cli._build_parser() is parser

        out = capsys.readouterr().out.splitlines()
        certificates = [line for line in out if line.startswith("status=")]
        assert [line.split()[1] for line in certificates] == ["k=2", "k=1"]


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        # Run from the directory holding the imported package, so the child
        # finds the same kricci whether or not PYTHONPATH names it.
        proc = subprocess.run(
            [sys.executable, "-m", "kricci", "verify", "royden", "--n", "1", "--count", "1"],
            capture_output=True,
            text=True,
            cwd=Path(kricci.cli.__file__).resolve().parents[1],
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
