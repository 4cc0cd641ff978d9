"""Command line interface: instance generation, lemma suites, certification,
flow campaigns, and report rendering.

Exit codes: 0 when every requested check passed, 1 when a check failed, and
2 for usage, parse, or runtime errors (malformed files included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import flow
from .errors import FlowDegenerateError, HypothesisError, TooFewSnapshotsError
from .extremes import CertifyOptions, certify_k_ricci
from .flow import FLOW_CHECKS, horizon_estimate, run_flow
from .forms import BihermitianForm, HermitianForm
from .io import (
    append_report,
    load_flow_config,
    load_report,
    load_tensor,
    save_certificate,
    save_json,
    save_tensor,
    write_flow_csv,
)
from .suites import SUITES, RicKUpper, SuiteConfig, generate_forms, run_suite

__all__ = ["main"]


# Built on the first call to main, not at import; parsing leaves it unchanged,
# and each subcommand's handler looks the library functions up at call time.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kricci",
        description="Curvature lemma suites and torus flow campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate random form files")
    gen.add_argument("--n", type=int, default=3, help="complex dimension")
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--k", type=int, default=1, help="constraint k (with --bound)")
    gen.add_argument(
        "--bound",
        type=float,
        default=None,
        help="certified upper bound for the k-Ricci extreme of emitted forms",
    )
    gen.set_defaults(func=_cmd_gen)

    # Flags that are not given stay unset, so SuiteConfig supplies the default.
    verify = sub.add_parser(
        "verify", help="run one lemma suite", argument_default=argparse.SUPPRESS
    )
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--n", dest="n_values", type=int, nargs="+")
    verify.add_argument("--k", dest="k_values", type=int, nargs="+")
    verify.add_argument("--count", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--tol", dest="tolerance", type=float)
    verify.add_argument(
        "--samples",
        type=int,
        help="Monte Carlo points per berger case, reported as mc_within_z (default 0: none)",
    )
    verify.add_argument("--out", default=None, help="append the report to this JSON file")
    verify.set_defaults(func=_cmd_verify)

    certify = sub.add_parser("certify", help="certify a k-Ricci upper bound for one form")
    certify.add_argument("form", help="tensor file")
    certify.add_argument("--metric", default=None, help="Hermitian metric file (default identity)")
    certify.add_argument("--k", type=int, default=1)
    certify.add_argument("--bound", type=float, default=math.inf)
    certify.add_argument("--seed", type=int, default=0)
    certify.add_argument("--tol", type=float, default=None, help="value tolerance")
    certify.add_argument("--out", default=None, help="certificate file")
    certify.set_defaults(func=_cmd_certify)

    flow_cmd = sub.add_parser("flow", help="run a flow campaign from a config file")
    flow_cmd.add_argument("config", help="flow config JSON")
    flow_cmd.add_argument("--out", default=".", help="output directory")
    flow_cmd.set_defaults(func=_cmd_flow)

    report = sub.add_parser("report", help="summarize report files")
    report.add_argument("paths", nargs="+")
    report.set_defaults(func=_cmd_report)

    return parser


def _cmd_gen(args) -> int:
    constraint = None
    if args.bound is not None:
        constraint = RicKUpper(k=args.k, bound=args.bound)
    forms = generate_forms(args.n, args.count, args.seed, constraint=constraint)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    shifts = []
    for i, (form, shift) in enumerate(forms):
        name = f"form-{i:03d}.json"
        save_tensor(out / name, form)
        files.append(name)
        shifts.append(shift)
    save_json(
        out / "manifest.json",
        {
            "n": args.n,
            "count": args.count,
            "seed": args.seed,
            "constraint": None
            if constraint is None
            else {"kind": "ric_k_upper", "k": constraint.k, "bound": constraint.bound},
            "files": files,
            "shifts": shifts,
        },
    )
    print(f"wrote {len(files)} forms and manifest.json to {out}")
    return 0


def _cmd_verify(args) -> int:
    fields = {f.name for f in dataclasses.fields(SuiteConfig)}
    config = SuiteConfig(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in vars(args).items()
        if key in fields
    })
    report = run_suite(config)
    for case in report.cases:
        status = "PASS" if case.passed else "FAIL"
        evidence = "" if case.within_z is None else f"  mc_within_z={case.within_z}"
        print(
            f"{case.case_id:<32} {case.lemma:<32} margin={case.margin:+.3e}  {status}{evidence}"
        )
    print(
        f"{report.suite}: {report.pass_count}/{len(report.cases)} passed, "
        f"worst margin {report.worst_margin:+.3e}, tol {report.tolerance:.1e}, "
        f"{report.wall_time:.2f}s"
    )
    if args.out:
        append_report(args.out, report.to_dict())
        print(f"report appended to {args.out}")
    return 0 if report.ok else 1


def _cmd_certify(args) -> int:
    loaded = load_tensor(args.form)
    if not isinstance(loaded.form, BihermitianForm):
        raise ValueError(f"{args.form}: expected a bihermitian tensor file")
    S = loaded.form
    if args.metric:
        metric = load_tensor(args.metric).form
        if not isinstance(metric, HermitianForm):
            raise ValueError(f"{args.metric}: expected a Hermitian tensor file")
        h = metric
    else:
        h = HermitianForm(np.eye(S.n))
    h.require_positive("metric")
    options = CertifyOptions()
    if args.tol is not None:
        options = CertifyOptions(value_tol=args.tol)
    cert = certify_k_ricci(
        S, h, args.k, bound=args.bound, options=options, rng=np.random.default_rng(args.seed)
    )
    if loaded.pre_projection_violation > 1e-12:
        print(f"input symmetrized (raw violation {loaded.pre_projection_violation:.3e})")
    print(
        f"status={cert.status} k={cert.k} value={cert.value:+.12e} "
        f"bound={cert.bound:+.6e} margin={cert.margin:+.3e} "
        f"converged={cert.n_converged} small_gradient={cert.n_small_gradient} "
        f"stalled={cert.n_stalled} iterations={cert.iterations}"
    )
    if args.out:
        save_certificate(args.out, cert)
        print(f"certificate written to {args.out}")
    return 0 if cert.status == "satisfied" else 1


def _cmd_flow(args) -> int:
    job = load_flow_config(args.config)
    degenerate = None
    try:
        result = run_flow(job.config)
    except FlowDegenerateError as err:
        degenerate, result = err, err.result
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "flow.csv"
    write_flow_csv(csv_path, result.rows)
    checks: dict[str, dict] = {}
    for check in FLOW_CHECKS:
        tol = check.tolerance(job.config, job.checks)
        if tol is None:
            continue
        entry = checks[check.name] = {"enabled": True, "tolerance": tol}
        try:
            # Looked up in kricci.flow at call time, like the handlers' functions.
            report = getattr(flow, f"check_{check.name}")(result, tol=tol)
        except TooFewSnapshotsError as err:
            entry.update(skipped=str(err), ok=False)
        except HypothesisError as err:
            entry.update(hypothesis_rejected=str(err), ok=False)
        else:
            entry.update({key: getattr(report, key) for key in check.fields}, ok=report.ok)

    ok = degenerate is None and all(entry["ok"] for entry in checks.values())
    record = {
        "kind": "flow",
        "config": str(job.source),
        "discretization": job.config.grid.discretization,
        "sigma": result.sigma,
        "steps": result.steps,
        "t_final": result.final.t,
        "sup_phidot_final": float(result.final.phidot.max()),
        "horizon_estimate": horizon_estimate(result),
        "checks": checks,
        "ok": ok,
    }
    if degenerate is not None:
        record["degenerate_at"] = degenerate.t
        record["degenerate_reason"] = str(degenerate)
    report_path = out / "flow_report.json"
    append_report(report_path, record)
    print(f"time series written to {csv_path}")
    print(f"report appended to {report_path}")
    for name, entry in checks.items():
        print(f"{name:<24} {'PASS' if entry['ok'] else 'FAIL'}")
    if degenerate is not None:
        print(f"flow degenerate: {degenerate}")
    print(f"flow: t={result.final.t:.6g} steps={result.steps} ok={ok}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    all_ok = True
    for path in args.paths:
        payload = load_report(path)
        for i, record in enumerate(payload["runs"]):
            if "summary" in record:
                summary = record["summary"]
                ok = bool(summary.get("ok"))
                print(
                    f"{path}[{i}] suite={record.get('suite')} "
                    f"passed={summary.get('pass_count')}/{summary.get('n_cases')} "
                    f"worst={summary.get('worst_margin'):+.3e} ok={ok}"
                )
            else:
                ok = bool(record.get("ok"))
                print(
                    f"{path}[{i}] kind={record.get('kind', '?')} "
                    f"t_final={record.get('t_final')} ok={ok}"
                )
            all_ok = all_ok and ok
    return 0 if all_ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
