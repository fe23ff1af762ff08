"""Run every workload, repeatedly, and report medians and spreads.

    python3 perfbench/suite.py                      # one untraced + one traced run each
    python3 perfbench/suite.py --repeats 10 --no-trace --out runs.json

Each repeat runs all workloads of BENCHMARK.json through run.py for its
``run_seconds``, forward on even repeats and reversed on odd ones, with the
repeat's number as the seed.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, against the metric's bound in BENCHMARK.json.  A traced
run per workload, on seed 0, then prints the per-layer metrics.  Every run's
record line (host, levels, drift) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def one_run(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    code, out = run.run_child(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        timeout=200)
    lines = out.strip().splitlines()
    if code != 0 or len(lines) < 2:
        raise RuntimeError(f"{name} seed {seed}: run.py exited {code}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    records, values, ok = [], {}, True
    for r in range(args.repeats):
        for name in names if r % 2 == 0 else names[::-1]:
            record, result = one_run(name, r, seconds, 0)
            records.append(dict(record, result=result))
            ok = ok and result["correct"]
            for k, v in result["metrics"].items():
                values.setdefault(name, {}).setdefault(k, []).append(v["value"])
            print(f"{name:15s} seed {r:3d}  "
                  + "  ".join(f"{k} {v['value']:.6g} {v['unit']}"
                              for k, v in result["metrics"].items())
                  + f"  failed {result['failed']}/{result['attempted']}"
                  + f"  load {record['host']['loadavg'][0]:.2f}"
                  + f"  steal {record['host']['steal_s'] or 0:.1f} s"
                  + ("  DRIFT" if record["drift"] else ""), flush=True)

    if args.repeats >= 2:
        print("\nworkload        metric          median        q1            "
              "q3            spread  bound")
        for name in names:
            for metric in bench["end_to_end"]:
                med, q1, q3, s = spread(values[name][metric["name"]])
                flag = ("" if s < metric["bound"] / 3 else
                        "  > bound/3" if s < metric["bound"] else "  > bound")
                print(f"{name:15s} {metric['name']:14s} {med:<13.6g} "
                      f"{q1:<13.6g} {q3:<13.6g} {s:6.4f}  "
                      f"{metric['bound']}{flag}")

    if not args.no_trace:
        print()
        for name in names:
            record, result = one_run(name, 0, seconds, 1)
            records.append(dict(record, result=result))
            ok = ok and result["correct"]
            print(f"{name} (traced, seed 0, "
                  f"trace file {record['trace_file']})")
            for k, v in result["metrics"].items():
                print(f"  {k:32s} {v['value']:<14.6g} {v['unit']}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    run.stop_on_sigterm()
    sys.exit(main())
