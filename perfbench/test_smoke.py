"""Smoke tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import spans  # noqa: E402
from motive_series import (  # noqa: E402
    blowup,
    cli,
    formulas,
    graph,
    jets,
    laurent,
    linalg,
    mseries,
    polys,
    verify,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MODULES = (blowup, cli, formulas, graph, jets, laurent, linalg, mseries, polys, verify)
CLASSES = (laurent.LaurentPoly, jets.HilbertOracle, blowup.DivisorialOracle, blowup.Modification)


def declared(key):
    return {m["name"]: m["unit"] for m in BENCH[key]}


def snapshot():
    """The identity of every attribute of the traced modules and classes."""
    return {(id(o), name): id(value) for o in MODULES + CLASSES for name, value in vars(o).items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_tiny(workload, trace, tmp_path):
    lines = []
    result = run.run_workload(workload, 5, 0, trace, tmp_path, setup_repeats=0, tiny=True, log=lines.append)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines), name
    if not trace:
        assert any(line.split()[:1] == ["fail_frac"] for line in lines)


def tiny_traced(workload, workdir):
    return run.run_workload(workload, 5, 0, 1, workdir, setup_repeats=0, tiny=True, log=lambda s: None)


def test_zero_counts_on_bypassed_layers(tmp_path):
    formula = tiny_traced("formula", tmp_path / "f")
    assert formula["metrics"]["jets.hilbert_calls"]["value"] == 0
    assert formula["metrics"]["linalg.rank_calls"]["value"] == 0
    assert formula["metrics"]["formulas.terms"]["value"] > 0
    oracle = tiny_traced("oracle", tmp_path / "o")
    assert oracle["metrics"]["formulas.terms"]["value"] == 0
    assert oracle["metrics"]["linalg.rank_calls"]["value"] > 0


def test_traced_and_untraced_digests_agree_and_patches_are_restored(tmp_path):
    ref = json.loads(run.REFERENCE.read_text())
    specs = []
    for spec in ref["workloads"].values():
        for cat in sorted({j["cat"] for j in spec["jobs"]}):
            specs.append(min((j for j in spec["jobs"] if j["cat"] == cat), key=lambda j: j["cost_ms"]))
    jobs = [run.Job(s, tmp_path) for s in specs]
    plain = [job.run()[1] for job in jobs]
    before = snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert snapshot() != before
        traced = [job.run()[1] for job in jobs]
    finally:
        tracer.uninstall()
    assert snapshot() == before
    assert traced == plain
    assert all(job.ok(r) for job, r in zip(jobs, plain))
    assert tracer.spans


def test_reference_mismatch_is_a_failure(tmp_path):
    ref = json.loads(run.REFERENCE.read_text())
    spec = dict(ref["workloads"]["points"]["jobs"][0])
    spec["expect"] = [[0, "0" * 16]]
    job = run.Job(spec, tmp_path)
    assert not job.ok(job.run()[1])


def test_false_budget_probe_strips_the_raised_cap(tmp_path):
    query = ["hilbert", "--curve", "c", "--at", "3,40", "--max-jet", "128"]
    spec = {"id": "p", "cat": "hcurve", "files": {}, "steps": [query]}
    assert run.Job(spec, tmp_path).probe_steps() == [["hilbert", "--curve", "c", "--at", "3,40"]]
    spec["steps"] = [["hilbert", "--curve", "c", "--at", "3,32", "--max-jet", "128"]]
    assert run.Job(spec, tmp_path).probe_steps() is None


def test_same_seed_same_jobs_per_category():
    ref = json.loads(run.REFERENCE.read_text())
    for spec in ref["workloads"].values():
        a = run.select_jobs(spec, 7)
        assert [j["id"] for j in a] == [j["id"] for j in run.select_jobs(spec, 7)]
        assert len({j["id"] for j in a}) == len(a)
        for cat, n in spec["per_pass"].items():
            assert sum(j["cat"] == cat for j in a) == n


def test_scaling_to_reference_speed():
    import pace

    ref = pace.REF_MS
    assert pace.scale(10.0, ref, ref) == pytest.approx(10.0)
    assert pace.scale(10.0, 2 * ref, 2 * ref) == pytest.approx(5.0)
    assert pace.scale(10.0, ref, 4 * ref) == pytest.approx(5.0)
    assert pace.kernel_ms() > 0


def test_tail_percentile():
    assert run.tail(list(range(1, 201)), 90) == (180, 20)
    assert run.tail([5.0, 1.0, 3.0], 50) == (3.0, 1)


def test_command_prints_contract_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "formula", "--seed", "2", "--seconds", "1"],
        cwd=str(HERE.parent),
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
    assert set(last["metrics"]) == set(declared("end_to_end"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "formula", "--seed", "1", "--seconds", "1"],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
