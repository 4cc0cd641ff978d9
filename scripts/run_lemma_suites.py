"""Run the random-instance lemma suites and print a summary table.

Example:

    python3 scripts/run_lemma_suites.py --count 10 --seed 3 --out reports/suites.json
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kricci.io import append_report
from kricci.suites import SUITES, SuiteConfig, run_suite


def main(argv=None):
    # Flags that are not given stay unset, so SuiteConfig and each suite's
    # registry entry supply the defaults, as in `kricci verify`.
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     argument_default=argparse.SUPPRESS)
    parser.add_argument("--suite", choices=SUITES, action="append",
                        help="suite to run (repeatable, default: all)")
    parser.add_argument("--count", type=int, help="instances per (n, k) cell")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--n", dest="n_values", type=int, nargs="+",
                        help="complex dimensions to cover (default: the suite's)")
    parser.add_argument("--samples", type=int,
                        help="Monte Carlo points per berger case (default 0: none)")
    parser.add_argument("--out", type=Path, default=None,
                        help="append suite reports to this JSON file")
    args = vars(parser.parse_args(argv))
    suites = args.pop("suite", SUITES)
    out = args.pop("out")
    if "n_values" in args:
        args["n_values"] = tuple(args["n_values"])

    all_ok = True
    for suite in suites:
        report = run_suite(SuiteConfig(suite=suite, **args))
        status = "ok" if report.ok else "FAIL"
        print(f"{suite:18s} {len(report.cases):3d} cases  "
              f"worst margin {report.worst_margin:+.3e}  "
              f"tol {report.tolerance:.1e}  {report.wall_time:6.2f}s  {status}")
        if not report.ok:
            all_ok = False
            for case in report.cases:
                if not case.passed:
                    print(f"  FAIL {case.case_id} ({case.lemma}) "
                          f"margin {case.margin:+.3e}")
        if out is not None:
            append_report(out, report.to_dict())
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
