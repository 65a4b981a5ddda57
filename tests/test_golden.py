"""Golden outputs: every job of the benchmark's recorded pools, replayed in
process, gives the exit codes and stdout digests recorded with it.

The jobs and their digests are in `perfbench/reference.json`; they run
through `perfbench/run.py`'s `Job` (each argv through `cli.main`, with
stdout captured) and are compared by its `digest`, both used read-only.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

WORKLOADS = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pool_jobs_match_their_digests(workload, tmp_path):
    wrong = []
    for spec in WORKLOADS[workload]["jobs"]:
        job = run.Job(spec, tmp_path)
        _, results = job.run()
        if not job.ok(results):
            wrong.append((job.id, results, job.expect))
    assert not wrong, "%d of %d jobs differ, first: %r" % (
        len(wrong), len(WORKLOADS[workload]["jobs"]), wrong[0]
    )
