"""Convergence-study benchmark for qncfem.

    python3 perfbench/run.py --workload er3-perturbed --seed 0 --seconds 30 --trace 0

Runs ``qncfem.cli.run_study`` on one workload from ``workloads.json`` and
prints, as the last stdout line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.

Each run starts fresh interpreters with BLAS/OpenMP pinned to one thread:
set-up probes (import plus reference-element build, repeated, median) and
one worker that repeats the study for ``--seconds`` (see study.py).  Times
are scaled to a reference host speed (see hostspeed.py).  The line before
the result records the host (nproc, CPU model, load average,
CPU time stolen by the hypervisor during the run, numpy/scipy versions), the
raw times and scale of each probe and study, the per-level table and any drift in exact
counts.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# the whole run must end within 180 s; the worker gets what is left
RUN_LIMIT_S = 170.0
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


def load_workloads() -> dict:
    """Workload name -> spec, each spec carrying the shared check."""
    with open(HERE / "workloads.json") as fh:
        data = json.load(fh)
    return {name: dict(spec, check=data["check"])
            for name, spec in data["workloads"].items()}


def declared_metrics() -> dict:
    """Metric name -> unit, for the end-to-end and the per-layer set."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in bench[key]}
            for key in ("end_to_end", "per_layer")}


def host_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "loadavg": list(os.getloadavg()), "steal_s": steal_seconds()}


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others, summed over all CPUs since
    boot (the 8th field of /proc/stat's cpu line), or None if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(cmd: list[str], timeout: float, env=None) -> tuple[int, str]:
    """Run cmd and return (exit code, stdout).  If the wait ends early
    (timeout, SIGTERM, interrupt), ask the child to stop with SIGTERM, so
    that it can stop its own children, and wait until it has ended."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
    return proc.returncode, out


def stop_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so run_child cleans up its child."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def child(script: str, args: list[str], timeout: float) -> dict:
    """Run a benchmark script in a fresh single-threaded interpreter and
    return the JSON object on its last stdout line."""
    code, out = run_child(
        [sys.executable, str(HERE / script), "--root", str(ROOT), *args],
        timeout, env=dict(os.environ, **THREADS))
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"{script} exited with code {code}")
    return json.loads(lines[-1])


def measure(name: str, spec: dict, seed: int, seconds: int,
            trace: bool) -> tuple[dict, dict]:
    """Return (result line, record line) for one run."""
    t0 = time.perf_counter()
    host = host_info()
    spec_json = json.dumps(spec)
    probes = [child("probe.py", ["--spec", spec_json], 60)
              for _ in range(SETUP_REPEATS)]
    worker = child("study.py", ["--name", name, "--spec", spec_json,
                                "--seed", str(seed), "--seconds", str(seconds),
                                "--trace", str(int(trace))],
                   RUN_LIMIT_S - (time.perf_counter() - t0))
    metrics = worker["metrics"]
    if trace:
        metrics["refelem.build_s"] = statistics.median(
            p["build_s"] * p["scale"] for p in probes)
    else:
        metrics["setup_s"] = statistics.median(
            (p["import_s"] + p["build_s"]) * p["scale"] for p in probes)
    host["loadavg_end"] = list(os.getloadavg())
    steal = steal_seconds()
    host["steal_s"] = (None if steal is None or host["steal_s"] is None
                       else steal - host["steal_s"])
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "host": dict(host, **worker["versions"]),
              "probes": probes,
              "studies": worker["studies"], "errors": worker["errors"],
              "levels": worker["levels"], "drift": worker["drift"],
              "trace_file": worker.get("trace_file")}
    result = {"correct": worker["failed"] == 0 and not worker["errors"],
              "attempted": worker["attempted"], "failed": worker["failed"],
              "metrics": metrics}
    return result, record


def main(argv=None, workloads: dict | None = None) -> int:
    workloads = load_workloads() if workloads is None else workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed non-negative")
    if not (ROOT / "src" / "qncfem" / "__init__.py").is_file():
        print(f"error: no qncfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    try:
        result, record = measure(args.workload, workloads[args.workload],
                                 args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": u}
                         for k, u in units.items()}
    for note in record["drift"]:
        print(f"nondeterminism: {note}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    stop_on_sigterm()
    sys.exit(main())
