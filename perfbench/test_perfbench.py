"""Tests of the benchmark itself: seeded inputs, and failure accounting."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracles import Reference  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _build(workload, seed, where: Path):
    jobs, _rungs, _sd0 = workloads.build(workload, seed, run.CORPUS, where)
    files = {p.relative_to(where): p.read_bytes() for p in sorted(where.rglob("*")) if p.is_file()}
    return jobs, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs_and_jobs(workload, tmp_path):
    assert _build(workload, 7, tmp_path / "a") == _build(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs_or_jobs(workload, tmp_path):
    assert _build(workload, 7, tmp_path / "a") != _build(workload, 8, tmp_path / "b")


def _small_moment_round(tmp_path):
    from whitney import cli

    jobs, rungs, sd0 = workloads.build("moment", 3, run.CORPUS, tmp_path / "inputs")
    jobs = [j for j in jobs if j["rung"] == "rp2_6_sd0"]
    records = run.run_rounds(cli, jobs, tmp_path / "inputs", tmp_path, 0, rounds=2)
    return jobs, records, Reference(rungs, sd0)


def test_correct_outputs_pass(tmp_path):
    jobs, records, ref = _small_moment_round(tmp_path)
    run.check_records(records, jobs, tmp_path / "inputs", tmp_path, ref)
    assert [r["failure"] for r in records] == [None] * len(records)
    assert all(len(r["digests"]["out"]) == 64 for r in records)


def test_corrupted_output_counts_as_failed(tmp_path):
    jobs, records, ref = _small_moment_round(tmp_path)
    out = Path(run.fill(jobs[1]["outputs"]["out"], tmp_path / "inputs", tmp_path / "r1"))
    chain = json.loads(out.read_text())
    edge = list(ref.sub("rp2_6_sd0").by_dim[1][0])  # toggling one edge breaks the cycle
    chain["simplices"] = sorted({tuple(s) for s in chain["simplices"]} ^ {tuple(edge)})
    out.write_text(json.dumps(chain))
    run.check_records(records, jobs, tmp_path / "inputs", tmp_path, ref)
    failed = [(r["round"], r["slot"]) for r in records if r["failure"] is not None]
    assert failed == [(1, 1)]


def test_alpha1_chain_for_a_function_counts_as_failed(tmp_path):
    jobs, records, ref = _small_moment_round(tmp_path)
    slot = next(s for s, j in enumerate(jobs) if j["fn"])
    out = Path(run.fill(jobs[slot]["outputs"]["out"], tmp_path / "inputs", tmp_path / "r1"))
    chain = json.loads(out.read_text())
    every = sorted(ref.sub("rp2_6_sd0").by_dim[jobs[slot]["i"]])
    assert sorted(map(tuple, chain["simplices"])) != every
    chain["simplices"] = [list(s) for s in every]  # a cycle, but the class of 1, not of a
    out.write_text(json.dumps(chain))
    run.check_records(records, jobs, tmp_path / "inputs", tmp_path, ref)
    failed = [(r["round"], r["slot"]) for r in records if r["failure"] is not None]
    assert failed == [(1, slot)]


def test_failed_exit_counts_as_failed(tmp_path):
    from whitney import cli

    jobs, rungs, sd0 = workloads.build("moment", 3, run.CORPUS, tmp_path / "inputs")
    job = dict(jobs[0], argv=[a.replace(".json", "_missing.json") for a in jobs[0]["argv"]])
    records = run.run_rounds(cli, [job], tmp_path / "inputs", tmp_path, 0, rounds=1)
    run.check_records(records, [job], tmp_path / "inputs", tmp_path, Reference(rungs, sd0))
    assert records[0]["failure"].startswith("exit code 2")


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert run.UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    traced = [*spans.Tracer().layer_metrics(), "trace.overhead_ratio"]
    assert {name: run._layer_unit(name) for name in traced} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
