"""Acceptance gate: eight criteria, one [PASS]/[FAIL] line each.

Criteria 1-3 compare computed convergence tables against published
reference values embedded below.  Our solver agrees with an independent
dense null-space oracle to all printed digits (see test_solve.py and the
oracle checks in criterion 8), but the published error values themselves
are 2-7x larger than what the discretization defined here produces, so
the value-matching sub-checks fail and are reported honestly.  The
observed convergence orders do match the expected rates.
"""

import sys
import time

import numpy as np
import pytest

from qncfem.cli import TABLES, StudyConfig, default_problem, run_study
from qncfem.mesh import perturbed_mesh, uniform_rect_mesh
from qncfem.refelem import Family, property_checks
from qncfem.solve import assemble, error_norms, solve
from qncfem.space import FeFunction, build_global_space, expected_dimension, interpolate
from kkt_reference import refined_solution


def report(num, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    try:
        from conftest import acceptance_lines
        acceptance_lines.append(line)
    except ImportError:
        pass
    return passed


# Published reference tables: (level, l2_err, l2_order, h1_err, h1_order).
TABLE_ER3 = [
    (2, 0.172089821, 0.0, 1.15734862, 0.0),
    (3, 0.012510804, 3.8, 0.16038663, 2.9),
    (4, 0.000823397, 3.9, 0.02155950, 2.9),
    (5, 0.000052434, 4.0, 0.00280349, 2.9),
    (6, 0.000003300, 4.0, 0.00035752, 3.0),
    (7, 0.000000207, 4.0, 0.00004514, 3.0),
    (8, 0.000000013, 4.0, 0.00000567, 3.0),
]
TABLE_RP4 = [
    (2, 0.073186215065, 4.4, 0.9404045783, 3.4),
    (3, 0.002467158503, 4.9, 0.0655417961, 3.8),
    (4, 0.000078057209, 5.0, 0.0042062381, 4.0),
    (5, 0.000002441049, 5.0, 0.0002645249, 4.0),
    (6, 0.000000076219, 5.0, 0.0000165552, 4.0),
    (7, 0.000000002381, 5.0, 0.0000010349, 4.0),
]
TABLE_R5T = [
    (2, 0.003652811, 5.5, 0.05082935, 4.2),
    (3, 0.000061390, 5.9, 0.00176166, 4.9),
    (4, 0.000000983, 6.0, 0.00005729, 4.9),
    (5, 0.000000016, 6.0, 0.00000182, 5.0),
    (6, 0.0, 6.0, 0.00000006, 5.0),
]
TABLE_ER5 = [
    (2, 0.003712721, 5.4, 0.05204506, 4.2),
    (3, 0.000062480, 5.9, 0.00180745, 4.8),
    (4, 0.000000999, 6.0, 0.00005869, 4.9),
    (5, 0.000000016, 6.0, 0.00000186, 5.0),
    (6, 0.0, 6.0, 0.00000006, 5.0),
]
TABLE_RP6 = [
    (2, 0.000428314992, 6.9, 0.0080196383, 5.7),
    (3, 0.000003402349, 7.0, 0.0001296547, 6.0),
    (4, 0.000000026614, 7.0, 0.0000020505, 6.0),
    (5, 0.000000000209, 7.0, 0.0000000322, 6.0),
    (6, 0.000000000021, 3.3, 0.0000000012, 4.8),
]
TABLE_R7T = [
    (2, 0.000046859707, 8.0, 0.0009292948, 7.0),
    (3, 0.000000182695, 8.0, 0.0000072707, 7.0),
    (4, 0.000000000839, 7.8, 0.0000000571, 7.0),
]


def _value_match(rows, table, rel):
    """Worst relative deviation over rows with reference values >= 1e-12."""
    got = {r.level: r for r in rows}
    worst = 0.0
    for (level, l2, _, h1, _) in table:
        if level not in got:
            return np.inf, False
        r = got[level]
        if l2 >= 1e-12:
            worst = max(worst, abs(r.l2_err - l2) / l2)
        if h1 >= 1e-12:
            worst = max(worst, abs(r.h1_err - h1) / h1)
    return worst, worst <= rel


def _final_orders(rows, table, floor=1e-10):
    """Observed orders at the finest level whose reference L2 error is
    above the machine-accuracy floor."""
    level = max(lv for (lv, l2, _, _, _) in table if l2 >= floor)
    row = next(r for r in rows if r.level == level)
    return row.l2_order, row.h1_order


class TestCriterion1:
    def test_er3_table(self):
        t0 = time.perf_counter()
        rows = run_study(TABLES["er3"])
        seconds = time.perf_counter() - t0
        dev, values_ok = _value_match(rows, TABLE_ER3, 0.01)
        l2o, h1o = _final_orders(rows, TABLE_ER3)
        orders_ok = abs(l2o - 4.0) <= 0.1 and abs(h1o - 3.0) <= 0.1
        time_ok = seconds < 120.0
        passed = values_ok and orders_ok and time_ok
        assert report(
            1, passed,
            f"ER m=3 levels 2-8: values {'ok' if values_ok else 'MISMATCH'} "
            f"(worst rel dev {dev:.2f}), orders {l2o:.2f}/{h1o:.2f} "
            f"{'ok' if orders_ok else 'off'}, {seconds:.0f}s",
        )


class TestCriterion2:
    def test_rplus4_table(self):
        rows = run_study(TABLES["rplus4"])
        dev, values_ok = _value_match(rows, TABLE_RP4, 0.01)
        l2o, h1o = _final_orders(rows, TABLE_RP4)
        orders_ok = abs(l2o - 5.0) <= 0.1 and abs(h1o - 4.0) <= 0.1
        passed = values_ok and orders_ok
        assert report(
            2, passed,
            f"RPlus m=4 levels 2-7: values {'ok' if values_ok else 'MISMATCH'} "
            f"(worst rel dev {dev:.2f}), orders {l2o:.2f}/{h1o:.2f} "
            f"{'ok' if orders_ok else 'off'}",
        )


class TestCriterion3:
    def test_higher_order_tables(self):
        tables = [("r5t", TABLE_R5T), ("er5", TABLE_ER5),
                  ("rplus6", TABLE_RP6), ("r7t", TABLE_R7T)]
        details = []
        passed = True
        for key, table in tables:
            config = TABLES[key]
            rows, m = run_study(config), config.m
            dev, values_ok = _value_match(rows, table, 0.02)
            l2o, h1o = _final_orders(rows, table)
            orders_ok = abs(l2o - (m + 1)) <= 0.15 and abs(h1o - m) <= 0.15
            passed = passed and values_ok and orders_ok
            details.append(
                f"{config.family}{m}/{config.variant}: dev {dev:.2f} "
                f"orders {l2o:.2f}/{h1o:.2f}"
            )
        # standard-variant rate floor for the relation families
        for m in (5, 7):
            rows = run_study(StudyConfig(family="r", m=m, levels=4, min_level=2))
            l2o, h1o = rows[-1].l2_order, rows[-1].h1_order
            ok = l2o >= m + 0.9 and h1o >= m - 0.1
            passed = passed and ok
            details.append(f"r{m}/standard rates {l2o:.2f}/{h1o:.2f}")
        assert report(3, passed, "; ".join(details))


class TestCriterion4:
    def test_dimension_theorem(self):
        combos = [(Family("R"), 3), (Family("R"), 5), (Family("ER"), 3),
                  (Family("ER"), 5), (Family("RPlus"), 2), (Family("RPlus"), 4)]
        meshes = [uniform_rect_mesh(n) for n in (2, 3, 4)]
        meshes.append(perturbed_mesh(4, seed=1))
        checked = 0
        passed = True
        for family, m in combos:
            for mesh in meshes:
                space = build_global_space(mesh, family, m)
                dim = space.n_free
                if space.constraints is not None:
                    dim -= np.linalg.matrix_rank(
                        space.constraints.toarray(), tol=1e-9
                    )
                passed = passed and dim == expected_dimension(space)
                checked += 1
        assert report(4, passed, f"{checked}/24 mesh-family-order combos exact")


class TestCriterion5:
    def test_relation_suite(self):
        checks = [c for c in property_checks()
                  if c[0].startswith(("gamma oracle", "relation residual"))]
        failed = [f"{name} {detail}" for name, passed, detail in checks if not passed]
        assert report(
            5, not failed,
            f"{len(checks)} checks: relation residuals <= 1e-12 over 700 random "
            f"members, weights collinear with oracle"
            + (": FAILED " + ", ".join(failed) if failed else ""),
        )


class TestCriterion6:
    def test_unisolvency_suite(self):
        checks = [c for c in property_checks()
                  if c[0].startswith(("unisolvency", "null vector"))]
        pairs = sum(name.startswith("unisolvency") for name, _, _ in checks)
        failed = [f"{name} {detail}" for name, passed, detail in checks if not passed]
        assert pairs == 14
        assert report(
            6, not failed,
            f"{pairs} family/order pairs full rank, null vectors collinear "
            f"with the relation weights"
            + (": FAILED " + ", ".join(failed) if failed else ""),
        )


class TestCriterion7:
    def test_interpolation_orders(self):
        u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        gu = lambda x, y: (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )
        cases = [(Family("R"), 1), (Family("R"), 3), (Family("ER"), 1),
                 (Family("ER"), 3), (Family("RPlus"), 2), (Family("RPlus"), 4)]
        passed = True
        details = []
        for family, m in cases:
            for kind in ("uniform", "perturbed"):
                errs = []
                for level in (2, 3, 4, 5):
                    n = 2 ** (level - 1)
                    mesh = (uniform_rect_mesh(n) if kind == "uniform"
                            else perturbed_mesh(n, seed=0))
                    space = build_global_space(mesh, family, m,
                                               homogeneous=False)
                    fe = interpolate(space, u)
                    errs.append(error_norms(space, fe.coeffs, u, gu)[1])
                slope = -np.polyfit(np.arange(4), np.log2(errs), 1)[0]
                ok = slope >= m - 0.1
                passed = passed and ok
                if not ok:
                    details.append(f"{family.tag}{m}/{kind} slope {slope:.2f}")
        assert report(
            7, passed,
            "broken-H1 interpolation slopes >= m-0.1 for 12 cases"
            + (": FAILED " + ", ".join(details) if details else ""),
        )


class TestCriterion8:
    def test_constrained_solver_vs_kkt(self):
        u, gu, f = default_problem()
        space = build_global_space(uniform_rect_mesh(2), Family("R"), 3)
        system = assemble(space, f)
        x, _ = solve(system)
        ref = refined_solution(system, dense=True)
        fa, fb = FeFunction(space, x), FeFunction(space, ref)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            e = int(rng.integers(space.mesh.n_elements))
            xh, yh = rng.uniform(-1, 1, (2, 1))
            va, _ = fa.evaluate(e, xh, yh)
            vb, _ = fb.evaluate(e, xh, yh)
            worst = max(worst, float(abs(va[0] - vb[0])))
        passed = worst <= 1e-9
        assert report(
            8, passed,
            f"projected CG vs refined dense KKT reference: max point deviation {worst:.1e}",
        )
