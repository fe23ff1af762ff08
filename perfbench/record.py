"""Record each workload's seed-0 fingerprints into workloads.json.

    python3 perfbench/record.py

Runs one traced and one untraced study per workload on seed 0 and stores,
per level, the L2 and H1 errors and the exact counts (ndof, nnz, iterations),
plus the reference element's dimension and Vandermonde condition number.
Re-record only when a change is meant to alter these values, and say so.
"""

import json
import sys

import run


def main() -> int:
    path = run.HERE / "workloads.json"
    with open(path) as fh:
        data = json.load(fh)
    for name, spec in run.load_workloads().items():
        worker = run.child("study.py", [
            "--name", name, "--spec", json.dumps(spec),
            "--seed", str(spec["fingerprint_seed"]), "--seconds", "1",
            "--trace", "1"], run.RUN_LIMIT_S)
        if worker["errors"]:
            print(f"{name}: study failed: {worker['errors']}", file=sys.stderr)
            return 1
        entry = data["workloads"][name]
        entry["refelem"] = worker["refelem"]
        entry["fingerprints"] = [
            {k: row[k] for k in ("level", "l2", "h1", "ndof", "nnz",
                                 "iterations")}
            for row in worker["levels"]]
        print(f"{name}: {len(entry['fingerprints'])} levels recorded")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
