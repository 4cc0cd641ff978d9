"""Serialization round trips and the parse-error contract."""

import json
import math
import re

import numpy as np
import pytest

from kricci.extremes import certify_k_ricci
from kricci.flow import DiagnosticsRow, FlowConfig, TwistSpec
from kricci.forms import (
    HermitianForm,
    b_form,
    random_bihermitian,
    random_hermitian,
    validate_symmetries,
)
from kricci.grid import MetricField, PeriodicGrid, ScalarField, scalar_from_modes
from kricci.io import (
    FLOW_CSV_COLUMNS,
    append_report,
    load_certificate,
    load_field,
    load_flow_config,
    load_json,
    load_report,
    load_tensor,
    read_flow_csv,
    save_certificate,
    save_field,
    save_json,
    save_tensor,
    write_flow_csv,
)


class TestTensorFiles:
    def test_bihermitian_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        S = random_bihermitian(3, rng)
        path = tmp_path / "form.json"
        save_tensor(path, S)
        loaded = load_tensor(path)
        assert loaded.pre_projection_violation < 1e-12
        np.testing.assert_allclose(loaded.form.entries, S.entries, atol=1e-14)

    def test_hermitian_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        h = random_hermitian(4, rng, positive=True)
        path = tmp_path / "metric.json"
        save_tensor(path, h)
        loaded = load_tensor(path)
        assert isinstance(loaded.form, HermitianForm)
        np.testing.assert_allclose(loaded.form.entries, h.entries, atol=1e-14)

    def test_loader_symmetrizes_raw_entries(self, tmp_path):
        # A raw tensor violating the symmetry class must be projected, with
        # the violation reported.
        n = 2
        raw = np.zeros((n, n, n, n), dtype=complex)
        raw[0, 0, 1, 1] = 1.0
        entries = [[float(z.real), float(z.imag)] for z in raw.ravel()]
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({"n": n, "entries": entries}))
        loaded = load_tensor(path)
        assert loaded.pre_projection_violation > 0.1
        assert validate_symmetries(loaded.form).ok

    def test_kind_inferred_from_length(self, tmp_path):
        h = HermitianForm(np.eye(2))
        path = tmp_path / "metric.json"
        save_tensor(path, h)
        data = json.loads(path.read_text())
        del data["kind"]
        path.write_text(json.dumps(data))
        assert isinstance(load_tensor(path).form, HermitianForm)

    def test_missing_key_is_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"entries": []}))
        with pytest.raises(ValueError, match="missing key"):
            load_tensor(path)


class TestFieldFiles:
    @pytest.mark.parametrize("discretization", ["fd2", "spectral"])
    def test_scalar_round_trip(self, tmp_path, discretization):
        grid = PeriodicGrid(1, 8, discretization)
        field = ScalarField(grid, scalar_from_modes(grid, [((1, 0), 0.25)]))
        path = tmp_path / "scalar.json"
        save_field(path, field)
        loaded = load_field(path)
        assert isinstance(loaded, ScalarField)
        assert loaded.grid == grid
        np.testing.assert_allclose(loaded.values, field.values, atol=1e-15)

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"n": 1, "N": 8, "discretization": "spectra"}, "discretization must be one of"),
            ({"n": 3, "N": 8}, "complex dimension must be 1 or 2, got 3"),
            ({"n": 1, "N": 7}, "N must be an even integer >= 8, got 7"),
        ],
        ids=["discretization", "dimension", "resolution"],
    )
    def test_bad_grid_is_a_value_error_naming_the_file(self, tmp_path, header, message):
        path = tmp_path / "field.json"
        save_json(path, {**header, "kind": "scalar", "values": []})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_field(path)

    def test_metric_round_trip(self, tmp_path):
        grid = PeriodicGrid(1, 8)
        values = np.ones(grid.shape + (1, 1), dtype=complex)
        field = MetricField(grid, values)
        path = tmp_path / "metric_field.json"
        save_field(path, field)
        loaded = load_field(path)
        assert isinstance(loaded, MetricField)
        np.testing.assert_allclose(loaded.values, values, atol=1e-15)

    def test_complex_offdiagonal_metric_round_trips_bitwise(self, tmp_path):
        grid = PeriodicGrid(2, 8, "spectral")
        rng = np.random.default_rng(5)
        values = np.zeros(grid.shape + (2, 2), dtype=complex)
        values[...] = np.eye(2)
        real, imag = 0.1 * rng.standard_normal((2,) + grid.shape)
        values[..., 0, 1] = real + 1j * imag
        values[..., 1, 0] = np.conj(values[..., 0, 1])
        field = MetricField(grid, values)
        path = tmp_path / "metric_field.json"
        save_field(path, field)
        loaded = load_field(path)
        assert isinstance(loaded, MetricField) and loaded.grid == grid
        assert loaded.values.tobytes() == values.tobytes()
        for entry, expected in zip(loaded.entries, field.entries):
            assert entry.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("defect", ["non-hermitian", "complex-diagonal"])
    def test_metric_file_must_be_hermitian(self, tmp_path, defect):
        grid = PeriodicGrid(2, 8)
        values = np.zeros(grid.shape + (2, 2), dtype=complex)
        values[...] = np.eye(2)
        if defect == "non-hermitian":
            values[1, 2, 3, 4, 0, 1] = 0.5
        else:
            values[1, 2, 3, 4, 1, 1] += 1e-6j
        entries = [[float(z.real), float(z.imag)] for z in values.ravel()]
        path = tmp_path / "metric_field.json"
        path.write_text(json.dumps({"n": 2, "N": 8, "kind": "metric", "values": entries}))
        with pytest.raises(ValueError, match="not Hermitian"):
            load_field(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"n": 1, "N": 8, "kind": "vector", "values": []}))
        with pytest.raises(ValueError, match="unknown field kind"):
            load_field(path)


class TestMalformedJson:
    def test_line_and_column_in_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": 1,\n "b": ,}\n')
        with pytest.raises(ValueError, match=r"line 2, column"):
            load_json(path)


class TestFlowCsv:
    def test_round_trip_with_non_finite_values(self, tmp_path):
        rows = [
            DiagnosticsRow(
                t=0.0,
                sup_phidot=0.0,
                inf_scalar_plus_tr_eta=0.0,
                bound_volume_upper=0.0,
                positivity_margin=1.0,
                sup_G=-math.inf,
                schwarz_min_margin=math.nan,
            ),
            DiagnosticsRow(
                t=0.5,
                sup_phidot=-0.25,
                inf_scalar_plus_tr_eta=0.4,
                bound_volume_upper=0.0,
                positivity_margin=0.75,
                sup_G=-1.5,
                schwarz_min_margin=1e-9,
            ),
        ]
        path = tmp_path / "flow.csv"
        write_flow_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(FLOW_CSV_COLUMNS)
        back = read_flow_csv(path)
        assert len(back) == 2
        assert back[0].sup_G == -math.inf
        assert math.isnan(back[0].schwarz_min_margin)
        assert back[1].positivity_margin == 0.75

    def test_header_is_pinned(self, tmp_path):
        path = tmp_path / "flow.csv"
        write_flow_csv(path, [])
        assert path.read_bytes() == (
            b"t,sup_phidot,inf_scalar_plus_tr_eta,bound_volume_upper,"
            b"positivity_margin,sup_G,schwarz_min_margin\r\n"
        )

    def test_rejects_foreign_columns(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="unexpected columns"):
            read_flow_csv(path)


class TestReports:
    def test_append_accumulates_runs(self, tmp_path):
        path = tmp_path / "report.json"
        append_report(path, {"ok": True, "run": 1})
        payload = append_report(path, {"ok": False, "run": 2})
        assert [r["run"] for r in payload["runs"]] == [1, 2]
        assert load_report(path)["runs"][1]["ok"] is False

    def test_rejects_non_report_file(self, tmp_path):
        path = tmp_path / "stray.json"
        save_json(path, {"something": "else"})
        with pytest.raises(ValueError, match="not a report"):
            append_report(path, {"ok": True})


class TestCertificates:
    def test_round_trip(self, tmp_path):
        S = b_form(HermitianForm(np.eye(2)))
        cert = certify_k_ricci(
            S, HermitianForm(np.eye(2)), 2, bound=7.0, rng=np.random.default_rng(0)
        )
        path = tmp_path / "cert.json"
        save_certificate(path, cert)
        data = load_certificate(path)
        assert data["status"] == cert.status
        assert data["value"] == pytest.approx(cert.value)
        assert data["witness"]["columns"].shape == (2, 2)

    def test_exit_reasons_written(self, tmp_path):
        h = HermitianForm(np.eye(3))
        S = random_bihermitian(3, np.random.default_rng(1))
        cert = certify_k_ricci(S, h, 2, bound=np.inf, rng=np.random.default_rng(1))
        path = tmp_path / "cert.json"
        save_certificate(path, cert)
        data = load_certificate(path)
        assert data["n_small_gradient"] == cert.n_small_gradient
        assert data["n_stalled"] == cert.n_stalled
        assert data["n_converged"] == cert.n_small_gradient + cert.n_stalled

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "certificate file must be a JSON object"),
            ({"witness": 5}, "witness must be a JSON object"),
            ({"witness": {"n": None, "k": 1, "columns": [[1.0, 0.0]]}},
             "witness.n must be a number, got None"),
            ({"witness": {"n": 1, "k": 1}}, "witness missing key 'columns'"),
        ],
        ids=["top-level-list", "witness-not-object", "witness-n-null", "witness-no-columns"],
    )
    def test_malformed_file_is_a_value_error_naming_it(self, tmp_path, payload, message):
        path = tmp_path / "cert.json"
        save_json(path, payload)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_certificate(path)


class TestFlowConfig:
    def test_inline_modes(self, tmp_path):
        path = tmp_path / "flow.json"
        save_json(
            path,
            {
                "grid": {"n": 1, "N": 16},
                "background": {"modes": [{"k": [1, 0], "amp": 0.02}]},
                "twist": {"c": 0.5, "u": {"modes": [{"k": [0, 1], "amp": [0.0, 0.01]}]}},
                "dt": 5e-4,
                "t_end": 0.25,
                "cadence": 4,
                "mu": 1.5,
                "checks": {"schwarz": 1e-3},
            },
        )
        job = load_flow_config(path)
        assert job.config.grid == PeriodicGrid(1, 16)
        assert job.config.twist.c == 0.5
        assert job.config.t_final == 0.25
        assert job.config.dt_initial == 5e-4
        assert job.config.diagnostics_every == 4
        assert job.config.mu == 1.5
        assert job.checks == {"schwarz": 1e-3}
        assert np.max(np.abs(job.config.background)) > 0.01
        assert np.max(np.abs(job.config.twist.potential)) > 0.005

    def test_file_reference(self, tmp_path):
        grid = PeriodicGrid(1, 8)
        field = ScalarField(grid, scalar_from_modes(grid, [((1, 0), 0.1)]))
        save_field(tmp_path / "bg.json", field)
        path = tmp_path / "flow.json"
        save_json(
            path,
            {"grid": {"n": 1, "N": 8}, "background": {"file": "bg.json"}, "t_end": 0.1},
        )
        job = load_flow_config(path)
        np.testing.assert_allclose(job.config.background, field.values, atol=1e-15)

    def test_grid_mismatch_rejected(self, tmp_path):
        grid = PeriodicGrid(1, 8)
        field = ScalarField(grid, np.zeros(grid.shape))
        save_field(tmp_path / "bg.json", field)
        path = tmp_path / "flow.json"
        save_json(
            path,
            {"grid": {"n": 1, "N": 16}, "background": {"file": "bg.json"}, "t_end": 0.1},
        )
        with pytest.raises(ValueError, match="does not match"):
            load_flow_config(path)

    def test_absent_keys_keep_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "flow.json"
        save_json(path, {"grid": {"n": 1, "N": 8}})
        job = load_flow_config(path)
        assert job.config == FlowConfig(grid=PeriodicGrid(1, 8), twist=TwistSpec())
        assert (job.config.mu, job.checks) == (None, {})

    def test_missing_grid_rejected(self, tmp_path):
        path = tmp_path / "flow.json"
        save_json(path, {"t_end": 1.0})
        with pytest.raises(ValueError, match="missing key"):
            load_flow_config(path)

    def test_bad_potential_spec_rejected(self, tmp_path):
        path = tmp_path / "flow.json"
        save_json(path, {"grid": {"n": 1, "N": 8}, "background": {"surprise": 1}})
        with pytest.raises(ValueError, match="'modes' or 'file'"):
            load_flow_config(path)

    def test_every_config_key_loads(self, tmp_path):
        path = tmp_path / "flow.json"
        modes = {"modes": [{"k": [1, 0], "amp": 0.01}]}
        save_json(
            path,
            {
                "grid": {"n": 1, "N": 8},
                "background": modes,
                "twist": {"c": 0.0, "u": modes},
                "dt": 1e-3,
                "t_end": 0.1,
                "cadence": 2,
                "alpha": 2.0,
                "beta": 0.5,
                "mu": 1.0,
                "checks": {"schwarz": 1e-2},
            },
        )
        job = load_flow_config(path)
        assert (job.config.alpha, job.config.beta, job.config.mu) == (2.0, 0.5, 1.0)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "flow.json"
        save_json(path, 5)
        with pytest.raises(ValueError, match="JSON object"):
            load_flow_config(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"sigma_init": 0.5}, "unknown flow config key 'sigma_init'"),
            ({"t_final": 0.5}, "unknown flow config key 't_final'"),
            # A misspelt key would otherwise keep the default: fd2, not spectral.
            (
                {"grid": {"n": 1, "N": 8, "discretisation": "spectral"}},
                "unknown key 'discretisation' under grid",
            ),
            ({"twist": {"cc": 0.5}}, "unknown key 'cc' under twist"),
            ({"background": {"modes": [], "scale": 2.0}}, "unknown key 'scale' under background"),
            ({"twist": {"u": {"file": "u.json", "amp": 1.0}}}, "unknown key 'amp' under twist.u"),
            (
                {"background": {"modes": [{"k": [1, 0], "amp": 0.01, "phase": 1.0}]}},
                "unknown key 'phase' under background.modes[0]",
            ),
            (
                {"background": {"modes": [], "file": "u.json"}},
                "background must carry exactly one of 'modes' or 'file'",
            ),
        ],
        ids=["sigma_init", "t_final", "grid", "twist", "background", "twist-u", "mode",
             "modes-and-file"],
    )
    def test_unknown_key_rejected(self, tmp_path, payload, message):
        path = tmp_path / "flow.json"
        save_json(path, {"grid": {"n": 1, "N": 8}, **payload})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_flow_config(path)

    def test_trace_evolution_tolerance_needs_mu(self, tmp_path):
        # Without mu the run computes no trace-evolution field, so the check would not run.
        path = tmp_path / "flow.json"
        save_json(path, {"grid": {"n": 1, "N": 8}, "checks": {"trace_evolution": 1e-6}})
        message = f"{path}: checks.trace_evolution is given, but the check runs only when 'mu'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_flow_config(path)

    @pytest.mark.parametrize(
        "mode, message",
        [
            ({"k": [1, 0], "amp": 0.01, "phase": 1.0}, "unknown key 'phase' under background.modes[0]"),
            ({"k": [1, "0"], "amp": 0.01}, "background.modes[0].k must be a number, got '0'"),
            ({"k": [1, 0], "amp": [0.01, None]}, "background.modes[0].amp must be a number, got None"),
            ({"k": [1], "amp": 0.01}, "background.modes[0].k must have 2 entries, one per axis"),
            (
                {"k": [1, 0], "amp": [0.01, 0.0, 5.0]},
                "background.modes[0].amp must be a number or an [re, im] pair",
            ),
        ],
        ids=["unknown-key", "k", "amp", "k-length", "amp-length"],
    )
    def test_bad_mode_names_the_file_once(self, tmp_path, mode, message):
        path = tmp_path / "flow.json"
        save_json(path, {"grid": {"n": 1, "N": 8}, "background": {"modes": [mode]}})
        with pytest.raises(ValueError) as err:
            load_flow_config(path)
        assert str(err.value) == f"{path}: {message}"

    def test_unknown_check_rejected(self, tmp_path):
        path = tmp_path / "flow.json"
        save_json(path, {"grid": {"n": 1, "N": 8}, "checks": {"schwarz": 1e-3, "schwartz": 1e-12}})
        with pytest.raises(ValueError, match="unknown check 'schwartz' under checks"):
            load_flow_config(path)


class TestNonFiniteInput:
    """``json`` reads the NaN, Infinity and -Infinity literals as floats; every
    file entry point rejects them with a ValueError naming the file and key."""

    @staticmethod
    def expect(path, key):
        return "^" + re.escape(f"{path}: {key} must be finite")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "key, payload",
        [
            ("mu", {"mu": "X"}),
            ("dt", {"dt": "X"}),
            ("twist.c", {"twist": {"c": "X"}}),
            ("checks.schwarz", {"checks": {"schwarz": "X"}}),
        ],
        ids=["mu", "dt", "twist-c", "check"],
    )
    def test_flow_config_number(self, tmp_path, key, payload, literal):
        path = tmp_path / "flow.json"
        text = json.dumps({"grid": {"n": 1, "N": 8}, **payload}).replace('"X"', literal)
        path.write_text(text)
        with pytest.raises(ValueError, match=self.expect(path, key)):
            load_flow_config(path)

    def test_grid_size(self, tmp_path):
        path = tmp_path / "flow.json"
        path.write_text('{"grid": {"n": 1, "N": NaN}}')
        with pytest.raises(ValueError, match=self.expect(path, "grid.N")):
            load_flow_config(path)

    @pytest.mark.parametrize("form", ["hermitian", "bihermitian"])
    def test_tensor_entries(self, tmp_path, form):
        rng = np.random.default_rng(9)
        path = tmp_path / "tensor.json"
        save_tensor(path, (random_hermitian if form == "hermitian" else random_bihermitian)(2, rng))
        data = json.loads(path.read_text())
        data["entries"][1][1] = math.inf
        save_json(path, data)
        with pytest.raises(ValueError, match=self.expect(path, "entries")):
            load_tensor(path)

    @pytest.mark.parametrize("kind", ["scalar", "metric"])
    def test_field_values(self, tmp_path, kind):
        grid = PeriodicGrid(1, 8)
        if kind == "scalar":
            field = ScalarField(grid, np.zeros(grid.shape))
        else:
            field = MetricField(grid, np.ones(grid.shape + (1, 1), dtype=complex))
        path = tmp_path / "field.json"
        save_field(path, field)
        data = json.loads(path.read_text())
        if kind == "scalar":
            data["values"][5] = math.nan
        else:
            data["values"][5][0] = math.nan
        save_json(path, data)
        with pytest.raises(ValueError, match=self.expect(path, "values")):
            load_field(path)
