"""Hash every level of the benchmark workloads and the published-table
studies, to show that a refactor leaves every result byte for byte as it
was.

    PYTHONPATH=src python tests/byte_identity.py --write before.json
    ... change the code ...
    PYTHONPATH=src python tests/byte_identity.py --compare before.json

It runs `cli.run_study` on the three workloads of perfbench/workloads.json
(seed 0), on the six `cli.TABLES` rows and on ER m=1 and R m=1 (uniform,
levels 2-6), which no workload or table has, and for every level hashes the
solution bytes and the iteration count, the L2/H1 errors (`float.hex`),
K, b and C, the Schwarz operators `assemble` passes to
`solve._preconditioner` (recorded by `schwarz_spy.recording`, which copies
the blocks on entry, since the preconditioner inverts them in place) and
one apply of `system.precondition` to a fixed vector; for the relation
families also the relation blocks it passes and one apply of the
projection's residual map.  OpenBLAS rounds long dot
products differently with one and two threads, so the script sets
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS (which OpenBLAS reads first) and
MKL_NUM_THREADS to 1 before numpy loads.  `--compare` exits with status 1 and lists
the differing entries when any hash differs; it ends with the count of
equal hashes and one line per study with its equal and differing counts.  The file name does not
match pytest's test pattern, so the suite does not collect it.
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
from schwarz_spy import recording

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


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
            "precondition": digest(system.precondition(probe)),
        }
        if ops.relations is not None:
            items["relations"] = digest(*ops.element_relations)
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


def collect() -> dict:
    hashes = {}
    for name, config in studies():
        print(f"  {name}", file=sys.stderr, flush=True)
        hashes.update((f"{name}/{k}", v) for k, v in hash_study(config).items())
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="record the hashes in FILE")
    mode.add_argument("--compare", metavar="FILE", help="check the hashes against FILE")
    args = parser.parse_args(argv)
    hashes = collect()
    if args.write:
        pathlib.Path(args.write).write_text(json.dumps(hashes, indent=1, sort_keys=True))
        print(f"wrote {len(hashes)} hashes to {args.write}")
        return 0
    recorded = json.loads(pathlib.Path(args.compare).read_text())
    differ = sorted(k for k in recorded.keys() | hashes.keys()
                    if recorded.get(k) != hashes.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(hashes) - len(differ)} of {len(recorded | hashes)} hashes equal")
    # a key is study/levelL/item, and a study name may hold a slash
    study = lambda key: key.rsplit("/", 2)[0]
    for name in sorted({study(k) for k in recorded | hashes}):
        keys = [k for k in recorded | hashes if study(k) == name]
        count = sum(k in differ for k in keys)
        print(f"{name}: {len(keys) - count} equal, {count} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
