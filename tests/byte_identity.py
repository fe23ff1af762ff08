"""Hash every level of the benchmark workloads and the published-table
studies, to show that a refactor leaves every result byte for byte as it
was; or, with --reference, measure how far each level's solution lies from
the refined direct reference, to judge a change that moves rounding.

    PYTHONPATH=src python tests/byte_identity.py --write before.json
    ... change the code ...
    PYTHONPATH=src python tests/byte_identity.py --compare before.json

It runs `cli.run_study` on the three workloads of perfbench/workloads.json
(seed 0), on the six `cli.TABLES` rows and on ER m=1 and R m=1 (uniform,
levels 2-6), which no workload or table has, and for every level hashes the
solution bytes and the iteration count, the L2/H1 errors (`float.hex`),
K, b and C, the Schwarz operators `assemble` passes to
`solve._preconditioner` (recorded by `schwarz_spy.recording`, which copies
the blocks on entry, since the preconditioner inverts them in place), the
inverse of every element's block that `solve._block_inverses` forms from
them, and one apply of `system.precondition` to a fixed vector; for the
relation families also the relation blocks G it passes, S = C~ F C~^T and the
relation blocks H of C~ F that `solve._relation_matrix` forms from them,
and one apply of the projection's residual map.  OpenBLAS rounds long dot
products differently with one and two threads, so the script sets
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS (which OpenBLAS reads first) and
MKL_NUM_THREADS to 1 before numpy loads.  `--compare` exits with status 1 and lists
the differing entries when any hash differs or is missing; it ends with the count of
equal hashes and one line per study with its equal and differing counts.
A hash that the file does not hold (an item added to the hash set after
the file was written) is listed as new and not compared, so that files
written before keep comparing.

    PYTHONPATH=src python tests/byte_identity.py --reference
    PYTHONPATH=src python tests/byte_identity.py --reference --write before.json
    PYTHONPATH=src python tests/byte_identity.py --reference --compare before.json

--reference runs the same studies and prints, for every level, the CG
iterations and the distance of the study's L2 and H1 errors from those of
`kkt_reference.refined_solution` (SuperLU, refined in long double) on the
same system, |e - e_ref| / e_ref.  The rule for a change that moves
rounding is that no level moves further from the reference beyond
REFERENCE_RULE, except where the reference error is at most
REFERENCE_FLOOR: with --compare, a level that met the rule in the file and
misses it now makes the exit status 1, and the levels that missed it in
the file (those at the REL_TOL floor of CG) are listed with both
distances.  The refinement needs a long double wider than float64.

The file name does not match pytest's test pattern, so the suite does not
collect it.
"""

import argparse
import hashlib
import json
import os
import pathlib
import sys

# before numpy, whose BLAS reads the thread counts when it loads
os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np
import scipy.sparse as sp

from qncfem import cli
from kkt_reference import LONG_DOUBLE_REASON, refined_solution
from schwarz_spy import recording

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
REFERENCE_RULE = 1e-10  # relative distance of an error from the reference's
REFERENCE_FLOOR = 1e-12  # errors at most this are exempt from the rule


def digest(*parts) -> str:
    """sha256 of arrays (dtype, shape and C-order bytes), sparse matrices
    (CSR data, indices and indptr), None and plain values."""
    h = hashlib.sha256()
    for part in parts:
        if sp.issparse(part):
            csr = part.tocsr()
            h.update(digest(csr.shape, csr.data, csr.indices, csr.indptr).encode())
        elif isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def studies():
    """(name, StudyConfig) of every study the check covers."""
    spec = json.loads(WORKLOADS.read_text())["workloads"]
    for name, w in sorted(spec.items()):
        yield name, cli.StudyConfig(**w["config"], seed=w["fingerprint_seed"])
    yield from ((f"tables/{name}", config) for name, config in cli.TABLES.items())
    for family in ("er", "r"):
        yield f"m1/{family}1", cli.StudyConfig(family=family, m=1, levels=6, min_level=2)


def hash_study(config) -> dict:
    """{level/item: hash} of one study, run through spies on the names
    `run_study` calls; each level is hashed as soon as it is solved, so
    that no level's arrays outlive it."""
    levels = []
    real = cli.solve

    def solve(system, x0=None):
        x, report = real(system, x0)
        probe = np.sin(np.arange(system.n) + 1.0)
        ops = operators.pop()
        items = {
            "solution": digest(x, report.iterations),
            "K": digest(system.matrix),
            "b": digest(system.rhs),
            "C": digest(system.constraints),
            "preconditioner_args": digest(ops.n, ops.elements, ops.element_blocks,
                                          ops.coarse, ops.coarse_matrix),
            "block_inverses": digest(ops.element_inverses()),
            "precondition": digest(system.precondition(probe)),
        }
        if ops.relations is not None:
            items["relations"] = digest(*ops.element_relations)
            items["relation_blocks"] = digest(*ops.relation_blocks())
            items["projection"] = digest(system.projection.residual(probe))
        levels.append(items)
        return x, report

    cli.solve = solve
    try:
        with recording() as operators:
            rows = cli.run_study(config)
    finally:
        cli.solve = real
    out = {}
    for row, items in zip(rows, levels, strict=True):
        items["errors"] = digest(row.l2_err.hex(), row.h1_err.hex())
        out.update((f"level{row.level}/{k}", v) for k, v in items.items())
    return out


def reference_study(config) -> dict:
    """{level/item: value} of one study: the iterations and the relative
    distances of the L2 and H1 errors from those of the refined reference,
    run through spies on the names `run_study` calls; each level's
    reference is solved before CG and dropped once its errors are taken."""
    references, norms = [], []
    real_solve, real_norms = cli.solve, cli.error_norms

    def solve(system, x0=None):
        references.append(refined_solution(system))
        return real_solve(system, x0)

    def error_norms(space, coeffs, u, grad_u):
        errors = real_norms(space, coeffs, u, grad_u)
        norms.append((errors, real_norms(space, references.pop(), u, grad_u)))
        return errors

    cli.solve, cli.error_norms = solve, error_norms
    try:
        rows = cli.run_study(config)
    finally:
        cli.solve, cli.error_norms = real_solve, real_norms
    out = {}
    for row, (errors, reference) in zip(rows, norms, strict=True):
        out[f"level{row.level}/iterations"] = row.iterations
        for name, e, ref in zip(("l2", "h1"), errors, reference):
            out[f"level{row.level}/{name}"] = abs(e - ref) / ref
            out[f"level{row.level}/{name}_exempt"] = ref <= REFERENCE_FLOOR
    return out


def collect(study=hash_study) -> dict:
    values = {}
    for name, config in studies():
        print(f"  {name}", file=sys.stderr, flush=True)
        values.update((f"{name}/{k}", v) for k, v in study(config).items())
    return values


def _level_rows(values) -> dict:
    """{study/levelL: (iterations, l2, h1)} of a --reference result."""
    rows = {}
    for key in values:
        if key.endswith("/iterations"):
            row = key.rsplit("/", 1)[0]
            rows[row] = (values[key], values[f"{row}/l2"], values[f"{row}/h1"])
    return rows


def _meets(values, row, name) -> bool:
    return values[f"{row}/{name}"] <= REFERENCE_RULE or values[f"{row}/{name}_exempt"]


def compare_reference(recorded, values) -> int:
    """Print every level's iterations and distances, recorded -> now, and
    the verdict; 1 when a level that met the rule misses it now."""
    before, now = _level_rows(recorded), _level_rows(values)
    farther, floor = [], []
    for row in sorted(before.keys() | now.keys()):
        if row not in before or row not in now:
            print(f"{row}: only {'now' if row in now else 'in the file'}")
            farther += [row] if row in before else []
            continue
        (i0, *d0), (i1, *d1) = before[row], now[row]
        marks = []
        for name, a, b in zip(("L2", "H1"), d0, d1):
            key = name.lower()
            if not _meets(recorded, row, key):
                marks.append(f"{name} past the rule in the file")
                floor.append(row)
            elif not _meets(values, row, key):
                marks.append(f"{name} FARTHER")
                farther.append(row)
        print(f"{row}: iterations {i0} -> {i1}, L2 {d0[0]:.1e} -> {d1[0]:.1e}, "
              f"H1 {d0[1]:.1e} -> {d1[1]:.1e}" + "".join(f"; {m}" for m in marks))
    print(f"{len(before)} levels in the file, {len(now)} now; {len(set(farther))} moved past "
          f"the {REFERENCE_RULE:.0e} rule; {len(set(floor))} missed it in the file")
    return 1 if farther else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reference", action="store_true",
                        help="distances from the refined reference in place of hashes")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="FILE", help="record the values in FILE")
    mode.add_argument("--compare", metavar="FILE", help="check the values against FILE")
    args = parser.parse_args(argv)
    if not (args.reference or args.write or args.compare):
        parser.error("one of --write, --compare or --reference is required")
    if args.reference and LONG_DOUBLE_REASON is not None:
        parser.error(LONG_DOUBLE_REASON)
    values = collect(reference_study if args.reference else hash_study)
    if args.write:
        pathlib.Path(args.write).write_text(json.dumps(values, indent=1, sort_keys=True))
        print(f"wrote {len(values)} values to {args.write}")
        return 0
    if args.reference and not args.compare:
        for row, (iterations, l2, h1) in sorted(_level_rows(values).items()):
            print(f"{row}: iterations {iterations}, L2 {l2:.1e}, H1 {h1:.1e}")
        return 0
    recorded = json.loads(pathlib.Path(args.compare).read_text())
    if args.reference:
        return compare_reference(recorded, values)
    differ = sorted(k for k in recorded if recorded[k] != values.get(k))
    for key in differ:
        print(f"differs: {key}")
    new = values.keys() - recorded.keys()
    for item in sorted({k.rsplit("/", 1)[1] for k in new}):
        count = sum(k.endswith(f"/{item}") for k in new)
        print(f"new, not in {args.compare}: {item} ({count} hashes)")
    print(f"{len(recorded) - len(differ)} of {len(recorded)} hashes equal, {len(new)} new")
    # a key is study/levelL/item, and a study name may hold a slash
    study = lambda key: key.rsplit("/", 2)[0]
    for name in sorted({study(k) for k in recorded | values}):
        keys = [k for k in recorded if study(k) == name]
        count = sum(k in differ for k in keys)
        print(f"{name}: {len(keys) - count} equal, {count} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
