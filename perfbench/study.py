"""Benchmark worker: run one workload's convergence study in this process.

``run.py`` starts this file as a fresh interpreter with BLAS/OpenMP threads
pinned to 1.  It repeats ``qncfem.cli.run_study`` for the time budget, checks
every level, and prints one JSON object on its last stdout line.

    python3 perfbench/study.py --root . --name NAME --spec JSON \\
        --seed 0 --seconds 30 --trace 0

Each study is scaled to the reference host speed by the kernel of
hostspeed.py, timed before and after it.  With ``--trace 0`` no study is
wrapped.  With ``--trace 1`` the worker runs
(traced, untraced) pairs, traced first so that peak-memory gains land on the
layer that caused them, and writes the spans to
``.bench_out/trace-NAME-seedS.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import hostspeed
from tracing import ROOT, Tracer, maxrss_mb


def load_cli(root: pathlib.Path):
    """Import qncfem from the checkout's own source tree."""
    src = root / "src"
    if not (src / "qncfem" / "__init__.py").is_file():
        raise SystemExit(f"error: no qncfem sources under {src}")
    sys.path.insert(0, str(src))
    import qncfem.cli as cli

    if pathlib.Path(cli.__file__).resolve().parent != (src / "qncfem").resolve():
        raise SystemExit(f"error: imported qncfem from {cli.__file__}, not {src}")
    return cli


def fingerprints_apply(spec: dict, seed: int) -> bool:
    """Uniform meshes ignore the seed, so their recorded values hold for
    every seed; a perturbed mesh matches them only on the recorded seed."""
    return (spec["config"]["mesh_kind"] == "uniform"
            or seed == spec["fingerprint_seed"])


def check_levels(spec: dict, seed: int, rows) -> list[dict]:
    """One verdict per expected level.  A level missing from ``rows`` (the
    study raised StudyError at or before it, or stopped early) fails; so does
    one whose L2/H1 error leaves the recorded value, or, at the finest level,
    whose observed rates drift from m+1 (L2) and m (H1)."""
    cfg, tol = spec["config"], spec["check"]
    m, finest = cfg["m"], cfg["levels"]
    recorded = ({f["level"]: f for f in spec["fingerprints"]}
                if fingerprints_apply(spec, seed) else {})
    by_level = {r.level: r for r in rows}
    out = []
    for level in range(cfg["min_level"], finest + 1):
        r = by_level.get(level)
        reason = None
        if r is None:
            reason = "missing: the study failed or stopped before this level"
        elif not (math.isfinite(r.l2_err) and math.isfinite(r.h1_err)):
            reason = "non-finite error norm"
        elif level in recorded and any(
                abs(val - recorded[level][key])
                > tol["rtol"] * abs(recorded[level][key]) + tol["atol"]
                for key, val in (("l2", r.l2_err), ("h1", r.h1_err))):
            reason = (f"L2/H1 {r.l2_err!r}/{r.h1_err!r} differ from recorded "
                      f"{recorded[level]['l2']!r}/{recorded[level]['h1']!r}")
        elif level == finest and (abs(r.l2_order - (m + 1)) > tol["rate"]
                                  or abs(r.h1_order - m) > tol["rate"]):
            reason = (f"rates {r.l2_order:.3f}/{r.h1_order:.3f} drift from "
                      f"{m + 1}/{m}")
        out.append({"level": level, "ok": reason is None, "reason": reason})
    return out


def run_once(cli, config, tracer: Tracer | None):
    t0, c0 = time.perf_counter(), time.process_time()
    error = None
    try:
        if tracer is None:
            rows = cli.run_study(config)
        else:
            with tracer.patched(cli):
                rows = tracer.call(ROOT, cli.run_study, config)
    except cli.StudyError as err:
        rows, error = err.rows, str(err)
    except Exception as err:  # any other crash fails every level, reported
        traceback.print_exc()
        rows, error = [], f"{type(err).__name__}: {err}"
    return rows, error, time.perf_counter() - t0, time.process_time() - c0


def spmv_bytes(n: int, nnz: int, index_bytes: int) -> int:
    """Bytes one CSR product y = A x moves: values and column indices,
    row pointers, x read and y written (float64), each touched once."""
    return nnz * (8 + index_bytes) + (n + 1) * index_bytes + 2 * 8 * n


def layer_metrics(tracer: Tracer, scale: float) -> dict:
    """Per-layer numbers of one traced study, times scaled by ``scale``."""
    spans = tracer.layer_spans()
    self_s = {k: v * scale for k, v in tracer.self_seconds().items()}

    def of(name):
        return [s for s in spans if s.name == name]

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in of(name))

    def finest(name, key):
        found = of(name)
        return found[-1].counts.get(key, 0) if found else 0

    assembled = {s.level: s.counts for s in of("solve.assemble")}
    bytes_moved = sum(
        s.counts["iterations"] * spmv_bytes(assembled[s.level]["n"],
                                            assembled[s.level]["nnz"],
                                            assembled[s.level]["index_bytes"])
        for s in of("solve.solve") if s.counts)
    iterations = total("solve.solve", "iterations")
    asm_s = self_s.get("solve.assemble", 0.0)
    solve_s = self_s.get("solve.solve", 0.0)
    return {
        "mesh.s": self_s.get("mesh", 0.0),
        "mesh.elements": total("mesh", "elements"),
        "mesh.rss_gain_mb": sum(s.rss_gain_mb for s in of("mesh")),
        "space.s": self_s.get("space", 0.0),
        "space.ndof": finest("space", "ndof"),
        "space.constraint_nnz": finest("space", "constraint_nnz"),
        "solve.assemble_s": asm_s,
        "solve.nnz": finest("solve.assemble", "nnz"),
        "solve.assemble_elements_per_s":
            total("solve.assemble", "elements") / asm_s if asm_s else 0.0,
        "solve.solve_s": solve_s,
        "solve.iterations": iterations,
        "solve.iterations_finest": finest("solve.solve", "iterations"),
        "solve.iterations_per_s": iterations / solve_s if solve_s else 0.0,
        "solve.true_residual": max(
            [s.counts.get("true_residual", 0.0) for s in of("solve.solve")],
            default=0.0),
        "solve.constraint_residual": max(
            [s.counts.get("constraint_residual", 0.0)
             for s in of("solve.solve")], default=0.0),
        "solve.spmv_bytes_computed": bytes_moved,
        "solve.rss_gain_mb": sum(s.rss_gain_mb for s in of("solve.solve")),
        "solve.error_norms_s": self_s.get("solve.error_norms", 0.0),
        "cli.run_study_self_s": self_s.get(ROOT, 0.0),
    }


# per-layer numbers that are times; the rest come from the first traced study
TIMED = ("mesh.s", "space.s", "solve.assemble_s", "solve.solve_s",
         "solve.error_norms_s", "cli.run_study_self_s")


def level_table(rows, verdicts, tracer: Tracer | None) -> list[dict]:
    nnz = {}
    if tracer is not None:
        ids = tracer.level_ids()
        for s in tracer.layer_spans():
            if s.name == "solve.assemble":
                nnz[ids.index(s.level)] = s.counts["nnz"]
    by_level = {v["level"]: v for v in verdicts}
    table = []
    for i, r in enumerate(rows):
        entry = {"level": r.level, "l2": r.l2_err, "h1": r.h1_err,
                 "l2_rate": r.l2_order, "h1_rate": r.h1_order,
                 "ndof": r.ndof, "iterations": r.iterations,
                 "seconds": r.seconds}
        if i in nnz:
            entry["nnz"] = nnz[i]
        if r.level in by_level:
            entry["ok"] = by_level[r.level]["ok"]
            entry["reason"] = by_level[r.level]["reason"]
        table.append(entry)
    return table


def drift(spec: dict, seed: int, tables: list[list[dict]],
          refinfo: dict) -> list[str]:
    """Exact counts that differ between the studies of this run, or from the
    recorded ones: a sign of nondeterminism, reported but not failed."""
    notes = []
    keys = ("ndof", "iterations", "nnz")
    for t in tables[1:]:
        for a, b in zip(tables[0], t):
            for k in keys:
                if k in a and k in b and a[k] != b[k]:
                    notes.append(f"level {a['level']} {k}: {a[k]} then {b[k]} "
                                 "within one run")
    if fingerprints_apply(spec, seed):
        recorded = {f["level"]: f for f in spec["fingerprints"]}
        for t in tables:
            for entry in t:
                rec = recorded.get(entry["level"], {})
                for k in keys:
                    if k in entry and k in rec and entry[k] != rec[k]:
                        notes.append(f"level {entry['level']} {k}: "
                                     f"{entry[k]} != recorded {rec[k]}")
        if refinfo != spec["refelem"]:
            notes.append(f"refelem {refinfo} != recorded {spec['refelem']}")
    return sorted(set(notes))


def measure(cli, spec: dict, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat the study while another batch fits in ``seconds`` (at least
    one batch) and return the checks, the level table and the metrics."""
    config = cli.StudyConfig(**spec["config"], seed=seed)
    start = time.perf_counter()
    studies, tables, tracers, verdicts = [], [], [], []
    kernel = hostspeed.kernel_s()
    while True:
        batch = (True, False) if traced else (False,)
        t_batch = time.perf_counter()
        for with_trace in batch:
            tracer = Tracer() if with_trace else None
            rows, error, wall, cpu = run_once(cli, config, tracer)
            kernel_after = hostspeed.kernel_s()
            scale = hostspeed.NOMINAL_S / ((kernel + kernel_after) / 2)
            kernel = kernel_after
            v = check_levels(spec, seed, rows)
            verdicts.extend(v)
            tables.append(level_table(rows, v, tracer))
            finest = rows[-1] if rows else None
            studies.append({
                "traced": with_trace, "seconds": wall, "cpu_s": cpu,
                "scale": scale, "error": error,
                "dofs_per_s": (finest.ndof / (finest.seconds * scale)
                               if finest else 0.0),
            })
            if tracer is not None:
                tracers.append((tracer, scale))
        batch_s = time.perf_counter() - t_batch
        if time.perf_counter() - start + batch_s > seconds:
            break

    # after the studies, so that the first one pays the element build (it is
    # cached) as a user's first study does; this call only reads the cache
    ref = cli.build_reference_element(config.family_obj(), config.m)
    refinfo = {"dim": ref.dim, "vandermonde_cond": float(
        np.linalg.cond(ref.vandermonde[ref.retained]))}
    scaled = {True: [], False: []}
    for s in studies:
        scaled[s["traced"]].append(s["seconds"] * s["scale"])
    plain = [s for s in studies if not s["traced"]]
    failed = sum(not v["ok"] for v in verdicts)
    result = {
        "attempted": len(verdicts),
        "failed": failed,
        "errors": [s["error"] for s in studies if s["error"]],
        "studies": studies,
        "levels": tables[0],
        "refelem": refinfo,
        "drift": drift(spec, seed, tables, refinfo),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if not traced:
        result["metrics"] = {
            "study_s": statistics.median(scaled[False]),
            "dofs_per_s": statistics.median(s["dofs_per_s"] for s in plain),
            "peak_rss_mb": maxrss_mb(),
            "pass_ratio": 1.0 - failed / len(verdicts),
        }
        return result

    per_study = [layer_metrics(t, scale) for t, scale in tracers]
    metrics = dict(per_study[0])
    for key in TIMED:
        metrics[key] = statistics.median(p[key] for p in per_study)
    metrics["refelem.dim"] = refinfo["dim"]
    metrics["refelem.vandermonde_cond"] = refinfo["vandermonde_cond"]
    metrics["trace.overhead_s"] = (statistics.median(scaled[True])
                                   - statistics.median(scaled[False]))
    result["metrics"] = metrics
    result["spans"] = [t.dump() for t, _ in tracers]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=pathlib.Path)
    ap.add_argument("--name", required=True)
    ap.add_argument("--spec", required=True, help="workload entry as JSON")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    cli = load_cli(args.root)
    result = measure(cli, json.loads(args.spec), args.seed, args.seconds,
                     bool(args.trace))
    spans = result.pop("spans", None)
    if spans is not None:
        out = args.root / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.name, "seed": args.seed,
                                    "studies": spans}))
        result["trace_file"] = str(path.relative_to(args.root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
