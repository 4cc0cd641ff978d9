"""Serialization round trips and the parse-error contract."""

import json
import math

import numpy as np
import pytest

from kricci.extremes import certify_k_ricci
from kricci.flow import DiagnosticsRow
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
        assert job.mu == 1.5
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

    def test_discretization_override(self, tmp_path):
        path = tmp_path / "flow.json"
        save_json(path, {"grid": {"n": 1, "N": 8, "discretization": "fd2"}})
        job = load_flow_config(path, discretization="spectral")
        assert job.config.grid.discretization == "spectral"

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
        assert (job.config.alpha, job.config.beta, job.mu) == (2.0, 0.5, 1.0)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "flow.json"
        save_json(path, 5)
        with pytest.raises(ValueError, match="JSON object"):
            load_flow_config(path)

    @pytest.mark.parametrize("key", ["sigma_init", "t_final"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "flow.json"
        save_json(path, {"grid": {"n": 1, "N": 8}, key: 0.5})
        with pytest.raises(ValueError, match=f"unknown flow config key '{key}'"):
            load_flow_config(path)
