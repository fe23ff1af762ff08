"""Tests for the command-line driver and convergence-study plumbing."""

import re

import numpy as np
import pytest

from qncfem import cli
from qncfem.cli import (
    StudyConfig,
    StudyError,
    StudyRow,
    default_problem,
    emit,
    format_table,
    main,
    run_study,
)


class TestDefaultProblem:
    def test_center_value(self):
        u, _, _ = default_problem()
        assert u(0.5, 0.5) == pytest.approx(1.9375, abs=1e-14)

    def test_vanishes_on_boundary(self):
        u, _, _ = default_problem()
        s = np.linspace(0, 1, 17)
        for vals in (u(s, 0.0), u(s, 1.0), u(0.0, s), u(1.0, s)):
            assert np.max(np.abs(vals)) < 1e-14

    def test_gradient_finite_difference(self):
        u, gu, _ = default_problem()
        rng = np.random.default_rng(0)
        x, y = rng.uniform(0.1, 0.9, (2, 20))
        gx, gy = gu(x, y)
        h = 1e-6
        assert np.max(np.abs(gx - (u(x + h, y) - u(x - h, y)) / (2 * h))) < 1e-6
        assert np.max(np.abs(gy - (u(x, y + h) - u(x, y - h)) / (2 * h))) < 1e-6

    def test_source_is_minus_laplacian(self):
        u, _, f = default_problem()
        rng = np.random.default_rng(1)
        x, y = rng.uniform(0.1, 0.9, (2, 20))
        h = 1e-4
        lap = (
            u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4 * u(x, y)
        ) / h**2
        assert np.max(np.abs(f(x, y) + lap)) < 1e-5


class TestRunStudy:
    def test_er3_smoke(self):
        rows = run_study(StudyConfig(family="er", m=3, levels=4, min_level=2))
        assert [r.level for r in rows] == [2, 3, 4]
        l2 = np.array([r.l2_err for r in rows])
        assert np.all(np.diff(l2) < 0)
        assert rows[-1].l2_order == pytest.approx(4.0, abs=0.4)
        assert rows[-1].h1_order == pytest.approx(3.0, abs=0.4)

    def test_r_family_with_relation(self):
        rows = run_study(StudyConfig(family="r", m=3, levels=3, min_level=2))
        assert rows[-1].l2_order == pytest.approx(4.0, abs=0.5)

    def test_perturbed_mesh_runs(self):
        rows = run_study(
            StudyConfig(family="rplus", m=2, levels=3, min_level=2,
                        mesh_kind="perturbed", seed=3)
        )
        assert rows[-1].l2_err < rows[0].l2_err

    def test_first_row_has_no_rate(self):
        # no rate is measured at the first level: NaN, not a rate of 0
        rows = run_study(StudyConfig(family="er", m=3, levels=2))
        assert np.isnan(rows[0].l2_order) and np.isnan(rows[0].h1_order)
        assert rows[1].l2_order > 0.0 and rows[1].h1_order > 0.0

    def test_custom_problem(self):
        # u = x(1-x)y(1-y): -lap u = 2y(1-y) + 2x(1-x)
        u = lambda x, y: x * (1 - x) * y * (1 - y)
        gu = lambda x, y: ((1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y))
        f = lambda x, y: 2 * y * (1 - y) + 2 * x * (1 - x)
        rows = run_study(
            StudyConfig(family="er", m=3, levels=3, min_level=2),
            problem=(u, gu, f),
        )
        # u is in P_4 but not P_3; still converges at full order
        assert rows[-1].l2_order == pytest.approx(4.0, abs=0.5)

    def test_determinism(self):
        config = StudyConfig(family="er", m=3, levels=3, min_level=2,
                             mesh_kind="perturbed", seed=7)
        a = run_study(config)
        b = run_study(config)
        assert [(r.l2_err, r.h1_err) for r in a] == [
            (r.l2_err, r.h1_err) for r in b
        ]


class TestStudyConfig:
    @pytest.mark.parametrize("kind", ["Uniform", "perturb", ""])
    def test_unknown_mesh_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="'uniform', 'perturbed'"):
            StudyConfig(mesh_kind=kind)

    @pytest.mark.parametrize("family", ["ER", "R", "rplus4", ""])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(ValueError, match="'r', 'er', 'rplus'"):
            StudyConfig(family=family)

    @pytest.mark.parametrize("family,tag", [("r", "R"), ("er", "ER"), ("rplus", "RPlus")])
    @pytest.mark.parametrize("kind", ["uniform", "perturbed"])
    def test_accepted_values(self, family, tag, kind):
        m = 4 if tag == "RPlus" else 3  # RPlus needs an even order, the default is 3
        assert StudyConfig(family=family, m=m, mesh_kind=kind).family_obj().tag == tag

    @pytest.mark.parametrize("min_level", [0, -1])
    def test_min_level_below_one_rejected(self, min_level):
        with pytest.raises(ValueError, match="^min_level must be at least 1"):
            StudyConfig(min_level=min_level, levels=3)

    @pytest.mark.parametrize("levels,min_level", [(0, 1), (2, 3)])
    def test_levels_below_min_level_rejected(self, levels, min_level):
        with pytest.raises(ValueError, match=r"^levels must be at least min_level"):
            StudyConfig(levels=levels, min_level=min_level)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError,
                           match=f"^seed must be a non-negative integer, got {seed!r}$"):
            StudyConfig(seed=seed)

    @pytest.mark.parametrize("family,variant,m,message", [
        ("er", "tilde", 3, "tilde variant applies to the R family only"),
        ("er", "standard", 4, "ER family needs odd order, got 4"),
        ("rplus", "standard", 3, "RPlus family needs even order >= 2, got 3"),
        ("r", "tilde", 1, "tilde variant needs m >= 3"),
    ], ids=["er-tilde", "er4", "rplus3", "r1-tilde"])
    def test_family_order_mismatch_rejected(self, family, variant, m, message):
        # at construction, not once run_study has built the first mesh
        with pytest.raises(ValueError, match=f"^{message}$"):
            StudyConfig(family=family, variant=variant, m=m)

    def test_single_level_accepted(self):
        assert StudyConfig(levels=2, min_level=2).levels == 2

    @pytest.mark.parametrize("kwargs,name,value", [
        ({"m": 3.0}, "m", 3.0),
        ({"m": True}, "m", True),
        ({"levels": 2.5}, "levels", 2.5),
        ({"levels": "5"}, "levels", "5"),
        ({"min_level": 1.5, "levels": 3}, "min_level", 1.5),
        ({"min_level": True, "levels": 3}, "min_level", True),
    ], ids=["m-float", "m-bool", "levels-float", "levels-str", "min_level-float",
            "min_level-bool"])
    def test_non_integer_count_rejected(self, kwargs, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            StudyConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = StudyConfig(m=np.int64(5), levels=np.int32(3), min_level=np.int64(2),
                             seed=np.uint8(4))
        assert [r.level for r in run_study(config)] == [2, 3]


class TestEmit:
    def _rows(self):
        return [
            StudyRow(2, 1.5e-3, np.nan, 2.5e-2, np.nan, 24, 11, 0.1),
            StudyRow(3, 9.5e-5, 3.98, 3.1e-3, 3.01, 120, 25, 0.2),
        ]

    def test_csv_header_and_roundtrip(self):
        out = emit(self._rows(), "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "level,l2_err,l2_order,h1_err,h1_order,ndof,iters,seconds"
        fields = lines[2].split(",")
        assert int(fields[0]) == 3
        assert float(fields[1]) == 9.5e-5
        assert int(fields[5]) == 120

    def test_csv_leaves_missing_rates_empty(self):
        first, second = emit(self._rows(), "csv").strip().splitlines()[1:]
        assert first.split(",")[2] == "" and first.split(",")[4] == ""
        assert float(second.split(",")[2]) == 3.98

    def test_text_table(self):
        out = format_table(self._rows())
        assert "level" in out.splitlines()[0]
        assert len(out.splitlines()) == 3

    def test_text_table_marks_missing_rates(self):
        header, first, second = format_table(self._rows()).splitlines()
        assert first.split()[2] == "-" and first.split()[4] == "-"
        assert second.split()[2] == "4.0"
        # the dash sits at the right edge of the rate column
        assert first.rindex("-", 0, header.index("H1")) == header.index("rate") + 3

    def test_text_table_shows_small_errors(self):
        out = format_table([StudyRow(6, 5.4512e-11, 6.0, 2.5359e-8, 5.0, 12288, 20, 0.1)])
        header, row = out.splitlines()
        assert "5.4512e-11" in row and "2.5359e-08" in row
        # every header label ends where its column does
        ends = [[m.end() for m in re.finditer(r"\S+(?: \S+)*", line)] for line in (header, row)]
        assert ends[0] == ends[1] and len(ends[0]) == 8

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit([], "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit(self._rows(), "json")


class TestMain:
    def test_run_subcommand(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        rc = main([
            "run", "--family", "er", "--order", "3", "--levels", "3",
            "--csv", str(csv),
        ])
        assert rc == 0
        assert csv.exists()
        body = csv.read_text().splitlines()
        assert body[0].startswith("level,")
        assert len(body) == 4  # header + levels 1..3

    def test_run_output_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--family", "rplus", "--order", "2", "--levels", "3",
                "--mesh", "perturbed", "--seed", "2"]
        assert main(args + ["--csv", str(a)]) == 0
        assert main(args + ["--csv", str(b)]) == 0
        # drop the timing column before comparing
        strip = lambda p: [
            ",".join(line.split(",")[:-1]) for line in p.read_text().splitlines()
        ]
        assert strip(a) == strip(b)

    def test_run_high_order_default_budget(self, capsys):
        # R~ m=7 level 3 takes 62 CG iterations at 328 dofs (95 from zero)
        rc = main(["run", "--family", "r", "--variant", "tilde", "--order", "7",
                   "--levels", "3"])
        assert rc == 0

    def test_tables_subcommand(self, capsys, tmp_path):
        rc = main(["tables", "--only", "r7t", "--csv-dir", str(tmp_path)])
        assert rc == 0
        assert "== r7t ==" in capsys.readouterr().out
        lines = (tmp_path / "r7t.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 3, 4]

    def test_verify_subcommand(self, capsys):
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_mesh_subcommand(self, tmp_path):
        from qncfem.mesh import load_mesh

        out = tmp_path / "mesh.txt"
        rc = main(["mesh", "--kind", "perturbed", "--n", "4", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        mesh = load_mesh(out)
        assert mesh.n_elements == 16

    def test_bad_family_order_combination(self, capsys):
        # even order for the odd-order family must fail cleanly
        with pytest.raises(SystemExit):
            main(["run", "--family", "r", "--order", "2"])

    @pytest.mark.parametrize("argv", [
        # level 2 is the first with a perturbed mesh: the seed is checked
        # before level 1 is solved and before the CSV target is opened
        ["run", "--mesh", "perturbed", "--seed", "-1", "--levels", "3",
         "--csv", "{tmp}/out.csv"],
        ["mesh", "--kind", "perturbed", "--seed", "-1", "--out", "{tmp}/m.txt"],
        ["mesh", "--kind", "uniform", "--seed", "-1", "--n", "2", "--out", "{tmp}/m.txt"],
    ], ids=["run", "mesh", "mesh-uniform"])
    def test_negative_seed_rejected(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qncfem: error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "m.txt").exists()
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv,config", [
        ([], StudyConfig()),
        (["--family", "r", "--variant", "tilde", "--order", "5", "--levels", "3",
          "--mesh", "perturbed", "--seed", "4"],
         StudyConfig(family="r", variant="tilde", m=5, levels=3,
                     mesh_kind="perturbed", seed=4)),
    ], ids=["defaults", "every-flag"])
    def test_run_flags_map_to_config_fields(self, capsys, monkeypatch, argv, config):
        seen = []

        def capture(config):
            seen.append(config)
            return [StudyRow(1, 0.1, 0.0, 1.0, 0.0, 4, 1, 0.01)]

        monkeypatch.setattr(cli, "run_study", capture)
        assert main(["run", *argv]) == 0
        assert seen == [config]

    def test_run_zero_levels_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--levels", "0"])
        assert exc.value.code == 2
        assert "qncfem: error: levels must be at least min_level" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--levels", "2", "--csv", "{bad}/x.csv"],
        ["tables", "--only", "r7t", "--csv-dir", "{bad}/csv"],
        ["mesh", "--n", "2", "--out", "{bad}/m.txt"],
    ], ids=["run", "tables", "mesh"])
    def test_unwritable_output_rejected_before_work(self, capsys, tmp_path, argv):
        bad = tmp_path / "file"  # a file where the output wants a directory
        bad.write_text("")
        with pytest.raises(SystemExit) as exc:
            main([a.format(bad=bad) for a in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""  # no study ran, no mesh was reported
        assert err.startswith("qncfem: error: ") and str(bad) in err

    def test_run_failure_writes_partial_csv(self, capsys, tmp_path, monkeypatch):
        row = StudyRow(2, 0.1, 0.0, 1.0, 0.0, 12, 5, 0.01)

        def fail(config):
            raise StudyError("level 3: CG did not converge", [row])

        monkeypatch.setattr(cli, "run_study", fail)
        csv = tmp_path / "out.csv"
        assert main(["run", "--csv", str(csv)]) == 1
        assert csv.read_text() == emit([row], "csv")
        out, err = capsys.readouterr()
        assert out == emit([row], "text")
        assert err == "error: level 3: CG did not converge\n"

    def test_tables_opens_every_csv_before_the_first_study(self, capsys, tmp_path):
        (tmp_path / "r7t.csv").mkdir()  # the last configuration's target
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--csv-dir", str(tmp_path)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "r7t.csv" in err

    def test_rank_deficient_order_rejected(self, capsys):
        # ER m=17 is unisolvent in exact arithmetic, not in floating point
        with pytest.raises(SystemExit) as exc:
            main(["run", "--family", "er", "--order", "17", "--levels", "2"])
        assert exc.value.code == 2
        assert "qncfem: error: unisolvency failure" in capsys.readouterr().err
