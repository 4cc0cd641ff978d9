"""File formats for tensors, grid fields, certificates, flow configs, and reports.

All formats are JSON except the flow time series, which is CSV.  Complex
data is stored as [re, im] pairs in row-major index order.  Tensor files
carry raw entries; the loader projects them onto the bihermitian symmetry
class and reports how far the raw data sat from it.  Reports accumulate:
each run appends one record to the "runs" list of its output file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .extremes import Certificate
from .flow import FLOW_CHECKS, DiagnosticsRow, FlowConfig, TwistSpec
from .forms import BihermitianForm, HermitianForm, symmetrize, validate_symmetries
from .grid import MetricField, PeriodicGrid, ScalarField, scalar_from_modes

__all__ = [
    "FLOW_CHECK_KEYS",
    "FLOW_CONFIG_KEYS",
    "FLOW_CSV_COLUMNS",
    "FlowJob",
    "LoadedTensor",
    "append_report",
    "load_field",
    "load_flow_config",
    "load_json",
    "load_report",
    "load_tensor",
    "read_flow_csv",
    "save_certificate",
    "save_field",
    "save_json",
    "save_tensor",
    "write_flow_csv",
]

FLOW_CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRow))


def load_json(path) -> dict:
    path = Path(path)
    try:
        with path.open() as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err


def _json_object(value, what: str, path, keys=None, noun: str = "key") -> dict:
    """``value`` if it is a JSON object with no key outside ``keys`` (None:
    any key); otherwise a ValueError naming the file, and the key."""
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {type(value).__name__}")
    for key in value if keys is not None else ():
        if key not in keys:
            raise ValueError(f"{path}: unknown {noun} {key!r} under {what}")
    return value


def save_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _complex_pairs(values: np.ndarray) -> list:
    flat = np.asarray(values, dtype=complex).ravel(order="C")
    return [[float(z.real), float(z.imag)] for z in flat]


def _array(values, shape, key: str, path, pairs: bool = True) -> np.ndarray:
    """The JSON list ``values`` as an array of ``shape``: a flat list of finite
    JSON numbers or, when ``pairs``, [re, im] pairs of them, one per entry in
    row-major order.  Anything else is a ValueError naming the file and key."""
    size = int(np.prod(shape))
    items = values if isinstance(values, list) and len(values) == size else []
    if pairs and all(type(pair) is list and len(pair) == 2 for pair in items):
        items = [x for pair in items for x in pair]
    if len(items) != size * (1 + pairs) or not all(type(x) in (int, float) for x in items):
        what = "[re, im] pairs of numbers" if pairs else "numbers"
        raise ValueError(f"{path}: {key} must be a flat list of {size} {what}")
    arr = np.array(items, dtype=float)
    # json reads the NaN and Infinity literals as floats.
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: {key} must be finite, got a NaN or infinite value")
    if pairs:
        arr = arr[0::2] + 1j * arr[1::2]
    return arr.reshape(shape)


@dataclass
class LoadedTensor:
    """A tensor read from disk, after projection onto its symmetry class."""

    form: BihermitianForm | HermitianForm
    pre_projection_violation: float


def save_tensor(path, form: BihermitianForm | HermitianForm) -> None:
    kind = "hermitian" if isinstance(form, HermitianForm) else "bihermitian"
    save_json(
        path,
        {"kind": kind, "n": form.n, "entries": _complex_pairs(form.entries)},
    )


def load_tensor(path) -> LoadedTensor:
    data = _json_object(load_json(path), "tensor file", path)
    try:
        n = _number(int, data["n"], "n", path)
        entries = data["entries"]
    except KeyError as err:
        raise ValueError(f"{path}: tensor file missing key {err}") from err
    if not isinstance(entries, list):
        raise ValueError(f"{path}: tensor entries must be a list of [re, im] pairs")
    count = len(entries)
    kind = data.get("kind")
    if kind is None:
        kind = {n * n: "hermitian", n**4: "bihermitian"}.get(count)
    if kind == "hermitian":
        raw = _array(entries, (n, n), "entries", path)
        violation = float(np.max(np.abs(raw - raw.conj().T)))
        return LoadedTensor(
            form=HermitianForm(0.5 * (raw + raw.conj().T)),
            pre_projection_violation=violation,
        )
    if kind == "bihermitian":
        raw = _array(entries, (n, n, n, n), "entries", path)
        violation = validate_symmetries(raw).max_violation
        return LoadedTensor(form=symmetrize(raw), pre_projection_violation=violation)
    raise ValueError(f"{path}: cannot determine tensor kind from {count} entries")


def save_field(path, field: ScalarField | MetricField) -> None:
    grid = field.grid
    header = {
        "n": grid.n,
        "N": grid.N,
        "discretization": grid.discretization,
    }
    if isinstance(field, ScalarField):
        header["kind"] = "scalar"
        header["values"] = [float(v) for v in field.values.ravel(order="C")]
    else:
        header["kind"] = "metric"
        header["values"] = _complex_pairs(field.values)
    save_json(path, header)


def _grid(n: int, N: int, discretization, path) -> PeriodicGrid:
    """``PeriodicGrid(n, N, discretization)``, its ValueError naming the file."""
    try:
        return PeriodicGrid(n, N, discretization)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def load_field(path) -> ScalarField | MetricField:
    data = _json_object(load_json(path), "field file", path)
    try:
        n, N = (_number(int, data[key], key, path) for key in ("n", "N"))
        kind, values = data["kind"], data["values"]
    except KeyError as err:
        raise ValueError(f"{path}: field file missing key {err}") from err
    grid = _grid(n, N, data.get("discretization", PeriodicGrid.discretization), path)
    if kind == "scalar":
        return ScalarField(grid, _array(values, grid.shape, "values", path, pairs=False))
    if kind == "metric":
        return MetricField(grid, _array(values, grid.shape + (n, n), "values", path))
    raise ValueError(f"{path}: unknown field kind {kind!r}")


def save_certificate(path, cert: Certificate) -> None:
    witness = cert.witness
    save_json(
        path,
        {
            "status": cert.status,
            "value": cert.value,
            "bound": cert.bound,
            "margin": cert.margin,
            "k": cert.k,
            "n_converged": cert.n_converged,
            "n_small_gradient": cert.n_small_gradient,
            "n_stalled": cert.n_stalled,
            "iterations": cert.iterations,
            "witness": {
                "n": witness.n,
                "k": witness.k,
                "columns": _complex_pairs(witness.columns),
            },
        },
    )


def load_certificate(path) -> dict:
    data = _json_object(load_json(path), "certificate file", path)
    witness = data.get("witness")
    if witness is not None:
        witness = _json_object(witness, "witness", path)
        if "columns" not in witness:
            raise ValueError(f"{path}: witness missing key 'columns'")
        shape = tuple(_number(int, witness.get(key), f"witness.{key}", path) for key in ("n", "k"))
        witness["columns"] = _array(witness["columns"], shape, "witness.columns", path)
    return data


@dataclass
class FlowJob:
    """A parsed flow configuration plus the check tolerances riding with it."""

    config: FlowConfig
    checks: dict[str, float]
    source: Path


def _potential_from_spec(spec, grid: PeriodicGrid, path: Path, what: str) -> np.ndarray | None:
    """Inline Fourier mode list, file reference (relative to the config file
    ``path``), or absent; ``what`` is the spec's key in the config."""
    if spec is None:
        return None
    if len(_json_object(spec, what, path).keys() & {"modes", "file"}) != 1:
        raise ValueError(f"{path}: {what} must carry exactly one of 'modes' or 'file'")
    _json_object(spec, what, path, ("modes", "file"))
    if "modes" in spec:
        modes = []
        # A ValueError raised here already names the file and the key.
        try:
            for i, mode in enumerate(spec["modes"]):
                key = f"{what}.modes[{i}]"
                _json_object(mode, key, path, ("k", "amp"))
                wavevector = tuple(_number(int, c, f"{key}.k", path) for c in mode["k"])
                if len(wavevector) != 2 * grid.n:
                    raise ValueError(f"{path}: {key}.k must have {2 * grid.n} entries, one per axis")
                amp = mode["amp"]
                parts = amp if isinstance(amp, list) else [amp, 0.0]
                if len(parts) != 2:
                    raise ValueError(f"{path}: {key}.amp must be a number or an [re, im] pair")
                re_im = [_number(float, a, f"{key}.amp", path) for a in parts]
                modes.append((wavevector, complex(*re_im)))
        except (KeyError, TypeError) as err:
            raise ValueError(
                f"{path}: malformed potential modes ({type(err).__name__}: {err}); each mode "
                "needs an integer wavevector 'k' and an amplitude 'amp', a number or [re, im]"
            ) from err
        return scalar_from_modes(grid, modes)
    if not isinstance(spec["file"], str):
        raise ValueError(f"{path}: potential 'file' must be a path, got {spec['file']!r}")
    field = load_field(path.parent / spec["file"])
    if not isinstance(field, ScalarField):
        raise ValueError(f"{spec['file']}: potential reference must be a scalar field")
    if field.grid != grid:
        raise ValueError(f"{spec['file']}: field grid does not match the flow grid")
    return field.values


def _number(cast, value, key: str, path):
    """``cast(value)`` for a finite JSON number ``value``, integral when
    ``cast`` is int; anything else (a bool, a string, NaN or Infinity, 8.9
    for an int) is a ValueError naming the file and the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: {key} must be a number, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"{path}: {key} must be finite, got {value!r}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{path}: {key} must be an integer, got {value!r}")
    return cast(value)


FLOW_CONFIG_KEYS = (
    "grid", "background", "twist", "dt", "t_end", "cadence", "alpha", "beta", "mu", "checks",
)
# Keys under "checks": the tolerance of each check the flow command runs.
FLOW_CHECK_KEYS = tuple(check.name for check in FLOW_CHECKS)

# Numeric flow config keys: the FlowConfig field each sets, and its type.
# Keys the file leaves out keep FlowConfig's defaults.
_FLOW_NUMBERS = {
    "t_end": ("t_final", float),
    "dt": ("dt_initial", float),
    "cadence": ("diagnostics_every", int),
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "mu": ("mu", float),
}


def load_flow_config(path) -> FlowJob:
    path = Path(path)
    data = _json_object(load_json(path), "flow config", path)
    for key in data:
        if key not in FLOW_CONFIG_KEYS:
            raise ValueError(f"{path}: unknown flow config key {key!r}")
    try:
        grid_spec = _json_object(data["grid"], "grid", path, ("n", "N", "discretization"))
        grid = _grid(
            _number(int, grid_spec["n"], "grid.n", path),
            _number(int, grid_spec["N"], "grid.N", path),
            grid_spec.get("discretization", PeriodicGrid.discretization),
            path,
        )
    except KeyError as err:
        raise ValueError(f"{path}: flow config missing key {err}") from err
    twist_spec = _json_object(data.get("twist", {}), "twist", path, ("c", "u"))
    twist = TwistSpec()
    if "c" in twist_spec:
        twist.c = _number(float, twist_spec["c"], "twist.c", path)
    twist.potential = _potential_from_spec(twist_spec.get("u"), grid, path, "twist.u")
    config = FlowConfig(
        grid=grid,
        background=_potential_from_spec(data.get("background"), grid, path, "background"),
        twist=twist,
        **{
            name: _number(cast, data[key], key, path)
            for key, (name, cast) in _FLOW_NUMBERS.items()
            if key in data
        },
    )
    checks = _json_object(data.get("checks", {}), "checks", path, FLOW_CHECK_KEYS, "check")
    checks = {key: _number(float, v, f"checks.{key}", path) for key, v in checks.items()}
    for check in FLOW_CHECKS:
        if check.name in checks and check.tolerance(config, checks) is None:
            raise ValueError(
                f"{path}: checks.{check.name} is given, but the check runs only when "
                f"{check.requires!r} is set"
            )
    return FlowJob(config=config, checks=checks, source=path)


def write_flow_csv(path, rows: list[DiagnosticsRow]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLOW_CSV_COLUMNS)
        for row in rows:
            writer.writerow([repr(getattr(row, col)) for col in FLOW_CSV_COLUMNS])


def read_flow_csv(path) -> list[DiagnosticsRow]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != FLOW_CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {header}")
        return [
            DiagnosticsRow(**{col: float(cell) for col, cell in zip(header, line)})
            for line in reader
        ]


def append_report(path, record: dict) -> dict:
    """Append one run record to a report file; creates the file if needed."""
    path = Path(path)
    payload = load_report(path) if path.exists() else {"runs": []}
    payload["runs"].append(record)
    save_json(path, payload)
    return payload


def load_report(path) -> dict:
    """A report file: a JSON object whose "runs" is a list of JSON objects, a
    suite run's "summary" among them an object with a numeric "worst_margin".
    Anything else is a ValueError naming the file."""
    payload = _json_object(load_json(path), "report file", path)
    if not isinstance(payload.get("runs"), list):
        raise ValueError(f"{path}: not a report file")
    for i, record in enumerate(payload["runs"]):
        if "summary" in _json_object(record, f"run {i}", path):
            worst = _json_object(record["summary"], f"run {i} summary", path).get("worst_margin")
            if isinstance(worst, bool) or not isinstance(worst, (int, float)):
                raise ValueError(f"{path}: run {i} summary has no numeric worst_margin")
    return payload
