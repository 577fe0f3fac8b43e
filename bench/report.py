"""Print every benchmark metric for every workload, by name, with units.

Usage (from the repository root):

    python3 bench/report.py [--seed 0] [--seconds 10] [--json FILE]

For each workload this makes one untraced measurement (`run_s`,
`setup_s`, `peak_rss_mb` as medians with quartiles and run counts, the
wall times and host speed the first two are scaled from, and
`failed_frac`) and one traced measurement (the per-layer metrics, then
every self time and count the trace recorded).  `--json` also writes
all of it, with provenance, to FILE.
"""

from __future__ import annotations

import argparse
import json

import run
from workloads import make_workloads


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--json", help="also write the results here")
    args = parser.parse_args(argv)
    if not run.sources_present():
        return 2
    wls = make_workloads()
    results = {}
    for name in wls:
        plain, plain_detail = run.measure(wls[name], args.seed,
                                          args.seconds, False)
        traced, traced_detail = run.measure(wls[name], args.seed,
                                            args.seconds, True)
        results[name] = {"untraced": [plain, plain_detail],
                         "traced": [traced, traced_detail]}
        d = plain_detail
        print(f"== {name} (seed {args.seed}): {d['why']}")
        print(f"   size: {json.dumps(d['size'], sort_keys=True)}")
        units = {**run.END_TO_END, **run.PROBED}
        for key, q in d["end_to_end"].items():
            print(f"   {key:<14} {_fmt(q['median']):>12} {units[key]:<5} "
                  f"median of {q['n']} (q1 {_fmt(q['q1'])}, "
                  f"q3 {_fmt(q['q3'])})")
        print(f"   {'failed_frac':<14} {_fmt(d['failed_frac']):>12} "
              f"{'frac':<5} {plain['failed']} of {plain['attempted']} "
              f"runs failed")
        for problem in d["failures"]:
            print(f"   failure: {problem}")
        print(f"   output digest {d['output_digest']}")
        print(f"   per-layer (median of {traced_detail['traced_runs']} "
              f"traced runs; "
              f"{traced['failed']} of {traced['attempted']} runs failed):")
        for key, m in traced["metrics"].items():
            print(f"     {key:<38} {_fmt(m['value']):>12} {m['unit']}")
        print("   every traced self time and count (last traced run):")
        for key, value in sorted(traced_detail["layers"].items()):
            print(f"     {key:<38} {_fmt(value):>12}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"provenance": run.provenance(), "seed": args.seed,
                       "seconds": args.seconds, "workloads": results}, fh,
                      indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
