"""Regenerate bench/reference.json, the pools the algebra workload draws from.

    python3 bench/make_reference.py

* ``forms``: POOL_SIZE random n=3 forms (workloads.pool_form) with the
  identity metric.  Each reference value is the k-Ricci maximum from a
  certify run eight times wider than the CLI default (more starts, a denser
  presweep, more iterations).  A form stays in the pool only if the default
  certifier reaches that value, status "satisfied", from every seed in
  ``certify_seeds``.
* ``models``: MODELS constant-curvature models (workloads.model_form) that
  certify to their exact -(k+1) sigma at k=1 and k=2 from every seed in
  ``certify_seeds``.
* ``suite_seeds``: for each suite of workloads.ALGEBRA_SUITES, the seeds
  among the first SUITE_SEEDS whose run passes every case.

Whatever fails is listed under ``excluded`` with the reason, so the
benchmark times only operations that succeed at the commit it was made on.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kricci.extremes import CertifyOptions, certify_k_ricci  # noqa: E402
from kricci.forms import HermitianForm  # noqa: E402
from kricci.io import load_tensor  # noqa: E402

import workloads  # noqa: E402

POOL_SIZE = 24
MODELS = 24
SUITE_SEEDS = 48
N = 3
CERTIFY_SEEDS = list(range(4))
WIDE = CertifyOptions(starts=512, presweep=8192, max_iter=400)


def _failure(op) -> str | None:
    """None if ``op`` runs and passes its check, else the reason, naming each
    failed suite case with its margin."""
    result = None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = op.run()
        op.verify(result)
    except Exception as exc:  # noqa: BLE001 - every failure is recorded
        failed = [f"{c.case_id} margin {c.margin:.3g}"
                  for c in getattr(result, "cases", ()) if not c.passed]
        return f"{op.label}: {exc}" + (f" ({', '.join(failed)})" if failed else "")
    return None


def main() -> int:
    h = HermitianForm(np.eye(N))
    forms, models, excluded = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(POOL_SIZE):
            path = workloads.write_form(Path(tmp) / "form.json", workloads.pool_form(index, N))
            S = load_tensor(path).form
            entry = {"index": index}
            for k in (1, 2):
                wide = certify_k_ricci(S, h, k, np.inf, WIDE, np.random.default_rng([index, k]))
                reasons = []
                for seed in CERTIFY_SEEDS:
                    cert = certify_k_ricci(S, h, k, wide.value, rng=np.random.default_rng(seed))
                    if cert.status != "satisfied":
                        reasons.append(f"seed {seed}: status {cert.status}")
                    elif abs(cert.value - wide.value) > workloads.VALUE_TOL * (1 + abs(wide.value)):
                        reasons.append(f"seed {seed}: value {cert.value!r}")
                if reasons:
                    excluded.append({"form": index, "k": k, "reason": "; ".join(reasons)})
                entry[f"k{k}"] = wide.value
            print(entry, flush=True)
            if not any(e.get("form") == index for e in excluded):
                forms.append(entry)

        for index in range(MODELS):
            reasons = [
                reason
                for seed in CERTIFY_SEEDS
                for op in workloads.model_ops(Path(tmp), index, N, seed)
                if (reason := _failure(op)) is not None
            ]
            if reasons:
                excluded.append({"model": index, "reason": "; ".join(reasons)})
            else:
                models.append(index)
        print(f"models: {len(models)} of {MODELS} kept", flush=True)

        suite_seeds = {suite: [] for suite, *_ in workloads.ALGEBRA_SUITES}
        for seed in range(SUITE_SEEDS):
            for op in workloads.suite_ops(dict.fromkeys(suite_seeds, seed)):
                reason = _failure(op)
                if reason is None:
                    suite_seeds[op.label].append(seed)
                else:
                    excluded.append({"suite": op.label, "seed": seed, "reason": reason})
        print({suite: f"{len(seeds)} of {SUITE_SEEDS} seeds kept"
               for suite, seeds in suite_seeds.items()}, flush=True)

    payload = {
        "n": N,
        "metric": "identity",
        "wide_options": {"starts": WIDE.starts, "presweep": WIDE.presweep, "max_iter": WIDE.max_iter},
        "certify_seeds": CERTIFY_SEEDS,
        "forms": forms,
        "models": models,
        "suite_seeds": suite_seeds,
        "excluded": excluded,
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"{len(forms)} forms and {len(models)} models kept, {len(excluded)} exclusions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
