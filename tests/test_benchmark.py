"""The benchmark's own level check on every benchmark workload.

Each workload of perfbench/workloads.json runs in-process at its
fingerprint seed, and perfbench/study.py's `check_levels` must pass every
level: a change that moves an error away from its recorded value fails
here, not only in a benchmark run.
"""

import pathlib
import sys

import pytest

from qncfem import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import study  # noqa: E402

WORKLOADS = run.load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_benchmark_check(name):
    spec = WORKLOADS[name]
    seed = spec["fingerprint_seed"]
    rows = cli.run_study(cli.StudyConfig(**spec["config"], seed=seed))
    verdicts = study.check_levels(spec, seed, rows)
    assert [v for v in verdicts if not v["ok"]] == []
    assert len(verdicts) == spec["config"]["levels"] - spec["config"]["min_level"] + 1
