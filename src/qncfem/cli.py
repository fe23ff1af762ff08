"""Convergence-study harness and command line interface.

Subcommands:
    run     solve the Poisson model problem over a mesh hierarchy and print
            an error/order table (optionally CSV)
    tables  run the six published-table configurations (TABLES)
    verify  run the reference-element property checks
    mesh    generate and save a mesh file
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .mesh import MeshError, _check_integer, perturbed_mesh, save_mesh, uniform_rect_mesh
from .refelem import Family, build_reference_element, property_checks
from .solve import SolverError, assemble, error_norms, solve
from .space import build_global_space, prolong

__all__ = [
    "StudyConfig",
    "StudyRow",
    "StudyError",
    "TABLES",
    "default_problem",
    "run_study",
    "emit",
    "main",
]


class StudyError(Exception):
    def __init__(self, msg, rows):
        super().__init__(msg)
        self.rows = rows


def default_problem():
    """Exact solution u = 16 (x - x^6)(y - y^2) on the unit square, with its
    gradient and the matching Poisson source f = -Laplacian(u)."""

    def u(x, y):
        return 16.0 * (x - x**6) * (y - y**2)

    def grad_u(x, y):
        return (
            16.0 * (1.0 - 6.0 * x**5) * (y - y**2),
            16.0 * (x - x**6) * (1.0 - 2.0 * y),
        )

    def f(x, y):
        return 16.0 * (30.0 * x**4 * (y - y**2) + 2.0 * (x - x**6))

    return u, grad_u, f


_FAMILY_TAGS = {"r": "R", "er": "ER", "rplus": "RPlus"}
_MESH_KINDS = ("uniform", "perturbed")


@dataclass
class StudyConfig:
    family: str = "er"  # "r" | "er" | "rplus"
    variant: str = "standard"
    m: int = 3
    levels: int = 5
    mesh_kind: str = "uniform"  # "uniform" | "perturbed"
    seed: int = 0
    min_level: int = 1

    def __post_init__(self):
        if self.family not in _FAMILY_TAGS:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"expected one of {', '.join(map(repr, _FAMILY_TAGS))}")
        if self.mesh_kind not in _MESH_KINDS:
            raise ValueError(f"unknown mesh kind {self.mesh_kind!r}; "
                             f"expected one of {', '.join(map(repr, _MESH_KINDS))}")
        for name in ("m", "levels", "min_level"):
            _check_integer(name, getattr(self, name))
        _check_integer("seed", self.seed, nonnegative=True)
        if self.min_level < 1:
            raise ValueError(f"min_level must be at least 1, got {self.min_level}")
        if self.levels < self.min_level:
            raise ValueError(f"levels must be at least min_level ({self.min_level}), "
                             f"got {self.levels}")
        self.family_obj().check_order(self.m)

    def family_obj(self) -> Family:
        return Family(_FAMILY_TAGS[self.family], self.variant)


# The configurations of the published tables (R~ is the tilde variant).
TABLES = {
    "er3": StudyConfig(family="er", m=3, levels=8, min_level=2),
    "rplus4": StudyConfig(family="rplus", m=4, levels=7, min_level=2),
    "r5t": StudyConfig(family="r", variant="tilde", m=5, levels=6, min_level=2),
    "er5": StudyConfig(family="er", m=5, levels=6, min_level=2),
    "rplus6": StudyConfig(family="rplus", m=6, levels=6, min_level=2),
    "r7t": StudyConfig(family="r", variant="tilde", m=7, levels=4, min_level=2),
}


@dataclass
class StudyRow:
    level: int
    l2_err: float
    l2_order: float  # NaN at the first level, where no rate is measured
    h1_err: float
    h1_order: float  # NaN likewise
    ndof: int
    iterations: int
    seconds: float


def _mesh_for_level(config: StudyConfig, level: int):
    n = 2 ** (level - 1)
    if config.mesh_kind == "uniform" or n < 2:
        return uniform_rect_mesh(n)
    return perturbed_mesh(n, seed=config.seed)


def run_study(config: StudyConfig, problem=None) -> list[StudyRow]:
    """Solve the model problem on every refinement level from min_level to
    levels.  Raises StudyError with the partial table on solver failure.

    Each level after the first starts CG from the previous level's solution
    prolonged onto it (`space.prolong`, nested iteration), so the iteration
    counts are those of warm starts; a level whose mesh does not refine the
    previous one (the perturbed 2x2 mesh after the 1x1) starts from zero."""
    u, grad_u, f = problem if problem is not None else default_problem()
    family = config.family_obj()
    rows: list[StudyRow] = []

    prev: StudyRow | None = None
    coarse = None  # the previous level's space and solution
    for level in range(config.min_level, config.levels + 1):
        t0 = time.perf_counter()
        mesh = _mesh_for_level(config, level)
        space = build_global_space(mesh, family, config.m)
        try:
            x0 = None if coarse is None else prolong(*coarse, space)
        except MeshError:
            x0 = None
        try:
            coeffs, report = solve(assemble(space, f), x0)
        except SolverError as err:
            raise StudyError(f"level {level}: {err}", rows) from err
        del x0  # freed with the system before the next level is set up
        coarse = (space, coeffs)
        l2, h1 = error_norms(space, coeffs, u, grad_u)
        # no rate at the first level, nor against a zero error
        l2o = np.log2(prev.l2_err / l2) if prev is not None and l2 > 0 else np.nan
        h1o = np.log2(prev.h1_err / h1) if prev is not None and h1 > 0 else np.nan
        row = StudyRow(
            level=level,
            l2_err=l2,
            l2_order=float(l2o),
            h1_err=h1,
            h1_order=float(h1o),
            ndof=space.n_free,
            iterations=report.iterations,
            seconds=time.perf_counter() - t0,
        )
        rows.append(row)
        prev = row
    return rows


def _rate(value: float, spec: str, missing: str) -> str:
    """A rate formatted with `spec`, or `missing` where none was measured
    (NaN)."""
    return missing if np.isnan(value) else format(value, spec)


def format_table(rows: list[StudyRow]) -> str:
    """The text table; a rate that was not measured prints as `-`."""
    lines = [
        f"{'level':>5}  {'L2 error':>10}  {'rate':>4}  {'H1 error':>10}  {'rate':>4}  "
        f"{'ndof':>7}  {'iters':>5}  {'sec':>5}"
    ]
    for r in rows:
        lines.append(
            f"{r.level:5d}  {r.l2_err:10.4e}  {_rate(r.l2_order, '4.1f', '-'):>4}  "
            f"{r.h1_err:10.4e}  {_rate(r.h1_order, '4.1f', '-'):>4}  {r.ndof:7d}  "
            f"{r.iterations:5d}  {r.seconds:5.1f}"
        )
    return "\n".join(lines)


def emit(rows: list[StudyRow], fmt: str = "text") -> str:
    """Render rows as text or CSV."""
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "text":
        out = format_table(rows) + "\n"
    elif fmt == "csv":
        lines = ["level,l2_err,l2_order,h1_err,h1_order,ndof,iters,seconds"]
        for r in rows:
            lines.append(
                f"{r.level},{r.l2_err:.12g},{_rate(r.l2_order, '.12g', '')},"
                f"{r.h1_err:.12g},{_rate(r.h1_order, '.12g', '')},{r.ndof},"
                f"{r.iterations},{r.seconds:.12g}"
            )
        out = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return out


def _verify(args) -> int:
    """Print the reference-element property suite, one line per check."""
    ok = True
    for name, passed, detail in property_checks():
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name} {detail}")
    return 0 if ok else 1


def _print_study(config: StudyConfig, csv_file=None) -> int:
    """Run one study and print its table, the partial one on failure, also
    as CSV to the open csv_file if given; return the exit status."""
    try:
        rows, failure = run_study(config), None
    except StudyError as err:
        rows, failure = err.rows, err
    if rows:
        print(emit(rows, "text"), end="")
        if csv_file is not None:
            csv_file.write(emit(rows, "csv"))
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def _run(args) -> int:
    config = StudyConfig(**{f.name: getattr(args, f.name)
                            for f in fields(StudyConfig) if f.name in args})
    try:  # an order whose dof set is rank-deficient in floating point
        build_reference_element(config.family_obj(), config.m)
    except RuntimeError as err:
        raise ValueError(err) from err
    # the CSV target is opened first, so a bad path fails before the study
    with open(args.csv, "w") if args.csv else contextlib.nullcontext() as fh:
        return _print_study(config, fh)


def _tables(args) -> int:
    keys = [args.only] if args.only else list(TABLES)
    with contextlib.ExitStack() as stack:
        files = dict.fromkeys(keys)
        if args.csv_dir:  # every CSV target is opened before the first study
            csv_dir = pathlib.Path(args.csv_dir)
            csv_dir.mkdir(parents=True, exist_ok=True)
            files = {key: stack.enter_context(open(csv_dir / f"{key}.csv", "w"))
                     for key in keys}
        rc = 0
        for key in keys:
            print(f"== {key} ==")
            rc |= _print_study(TABLES[key], files[key])
            print()
    return rc


def _mesh_cmd(args) -> int:
    _check_integer("seed", args.seed, nonnegative=True)  # for either kind, as `run` does
    if args.kind == "uniform":
        mesh = uniform_rect_mesh(args.n)
    else:
        mesh = perturbed_mesh(args.n, seed=args.seed)
    save_mesh(mesh, args.out)
    print(f"wrote {args.out}: {len(mesh.vertices)} vertices, "
          f"{mesh.n_elements} quads")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qncfem",
        description="Nonconforming quadrilateral finite elements: "
                    "Poisson convergence studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is a StudyConfig field; an absent flag leaves no
    # attribute, so the field keeps StudyConfig's default
    p_run = sub.add_parser("run", help="run a convergence study",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--family", choices=tuple(_FAMILY_TAGS))
    p_run.add_argument("--variant", choices=("standard", "tilde"))
    p_run.add_argument("--order", dest="m", type=int, metavar="M")
    p_run.add_argument("--levels", type=int, metavar="L")
    p_run.add_argument("--mesh", dest="mesh_kind", choices=_MESH_KINDS)
    p_run.add_argument("--seed", type=int, metavar="S")
    p_run.add_argument("--csv", default=None, metavar="PATH")
    p_run.set_defaults(func=_run)

    p_tab = sub.add_parser("tables",
                           help="run the published-table configurations")
    p_tab.add_argument("--only", choices=tuple(TABLES), default=None)
    p_tab.add_argument("--csv-dir", default=None, metavar="DIR",
                       help="also write KEY.csv per configuration")
    p_tab.set_defaults(func=_tables)

    p_ver = sub.add_parser("verify", help="reference-element property suite")
    p_ver.set_defaults(func=_verify)

    p_mesh = sub.add_parser("mesh", help="generate and save a mesh")
    p_mesh.add_argument("--kind", choices=_MESH_KINDS, default="uniform")
    p_mesh.add_argument("--n", type=int, default=4)
    p_mesh.add_argument("--seed", type=int, default=0)
    p_mesh.add_argument("--out", required=True)
    p_mesh.set_defaults(func=_mesh_cmd)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # bad values, unwritable output paths
        parser.exit(2, f"qncfem: error: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
