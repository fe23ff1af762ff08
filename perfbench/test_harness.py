"""Fast self-test of the benchmark harness on tiny configurations.

    python3 -m pytest -q perfbench/test_harness.py

Runs run.py's main on ER m=3 and RPlus m=4, levels 2-4, with fingerprints
recorded on the spot, and checks that every metric BENCHMARK.json names is
printed with its unit, that the trace file holds well-formed spans, and
that corrupting one recorded error or the finest level's rate fails that
level.
"""

import copy
import json
import pathlib
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run  # noqa: E402
import study  # noqa: E402

TINY = {
    "tiny-er3": {"family": "er", "variant": "standard", "m": 3,
                 "min_level": 2, "levels": 4, "mesh_kind": "perturbed"},
    "tiny-rplus4": {"family": "rplus", "variant": "standard", "m": 4,
                    "min_level": 2, "levels": 4, "mesh_kind": "uniform"},
}
# the finest level of a 2-4 study is pre-asymptotic (ER3 L2 rate 4.30)
CHECK = {"rtol": 1e-6, "atol": 1e-13, "rate": 0.5}


@pytest.fixture(scope="module")
def workloads():
    out = {}
    for name, config in TINY.items():
        spec = {"config": config, "fingerprint_seed": 0, "check": CHECK,
                "refelem": {}, "fingerprints": []}
        worker = run.child("study.py", [
            "--name", name, "--spec", json.dumps(spec), "--seed", "0",
            "--seconds", "1", "--trace", "1"], 60)
        spec["refelem"] = worker["refelem"]
        spec["fingerprints"] = worker["levels"]
        out[name] = spec
    return out


def run_main(capsys, workloads, name, trace, seed=0):
    rc = run.main(["--workload", name, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace)], workloads=workloads)
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(capsys, workloads, name, trace):
    record, result = run_main(capsys, workloads, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    units = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == set(units)
    for metric, unit in units.items():
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
    assert record["drift"] == []
    assert record["host"]["nproc"] >= 1 and "numpy" in record["host"]
    if not trace:
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
        return
    trace_file = run.ROOT / record["trace_file"]
    studies = json.loads(trace_file.read_text())["studies"]
    for spans in studies:
        for s in spans:
            assert {"name", "start", "end", "parent", "level"} <= set(s)
            assert s["end"] >= s["start"]
        levels = {}
        for s in spans:
            if s["kind"] == "level":
                levels.setdefault(s["level"], []).append(s["name"])
        assert len(levels) == 3
        for names in levels.values():
            assert names == ["mesh", "space", "solve.assemble", "solve.solve",
                             "solve.error_norms"]


def test_corrupted_fingerprint_fails_its_level(capsys, workloads):
    bad = copy.deepcopy(workloads)
    bad["tiny-rplus4"]["fingerprints"][1]["l2"] *= 1.01
    record, result = run_main(capsys, bad, "tiny-rplus4", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["pass_ratio"]["value"] < 1.0
    assert [lv["ok"] for lv in record["levels"]] == [True, False, True]


def test_perturbed_fingerprints_hold_only_on_their_seed(capsys, workloads):
    bad = copy.deepcopy(workloads)
    bad["tiny-er3"]["fingerprints"][0]["h1"] *= 1.01
    _, result = run_main(capsys, bad, "tiny-er3", 0, seed=1)
    assert result["correct"]


def test_study_error_fails_its_level_and_the_rest(workloads):
    spec = workloads["tiny-rplus4"]
    rows = [SimpleNamespace(level=f["level"], l2_err=f["l2"], h1_err=f["h1"],
                            l2_order=0.0, h1_order=0.0)
            for f in spec["fingerprints"][:1]]
    verdicts = study.check_levels(spec, 0, rows)
    assert [v["ok"] for v in verdicts] == [True, False, False]


@pytest.mark.parametrize("off_by, ok", [(0.49, True), (0.51, False)])
def test_finest_rate_drift_fails_the_finest_level(workloads, off_by, ok):
    spec = workloads["tiny-er3"]
    m = spec["config"]["m"]
    rows = [SimpleNamespace(level=f["level"], l2_err=f["l2"], h1_err=f["h1"],
                            l2_order=m + 1.0, h1_order=float(m))
            for f in spec["fingerprints"]]
    rows[-1].l2_order += off_by
    verdicts = study.check_levels(spec, 0, rows)
    assert [v["ok"] for v in verdicts] == [True, True, ok]
    if not ok:
        assert verdicts[-1]["reason"].startswith("rates ")
