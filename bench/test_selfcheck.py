"""Self-check of the benchmark (``python -m pytest bench -q``).

Not collected by the repo's tier-1 run, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import declare, measure, spans, workloads  # noqa: E402

RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
SMOKE_LIMIT_SECONDS = 30.0


@pytest.fixture(scope="module")
def smoke():
    """One ``--smoke`` set: (record, wall seconds, exit code, stdout)."""
    out = os.path.join(BENCH_DIR, "out", "selfcheck-smoke.json")
    started = time.monotonic()
    done = subprocess.run(
        RUN + ["--smoke", "--out", out], capture_output=True, text=True,
        timeout=170,
    )
    wall = time.monotonic() - started
    with open(out) as handle:
        return json.load(handle), wall, done.returncode, done.stdout + done.stderr


def test_contract_file_is_the_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == declare.contract()


def test_declared_names_are_well_formed_and_unique():
    names = (declare.WORKLOAD_NAMES + declare.END_TO_END_NAMES
             + declare.PER_LAYER_NAMES)
    assert len(names) == len(set(names))
    assert all(declare.NAME_RE.match(name) for name in names)
    assert 2 <= len(declare.WORKLOADS) <= 8
    assert len(declare.END_TO_END) <= 16 and len(declare.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in declare.END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in declare.WORKLOADS)
    assert {m for metric in declare.PER_LAYER for m, _ in metric.moves} <= set(
        declare.END_TO_END_NAMES)


def test_smoke_is_quick_and_complete(smoke):
    record, wall, code, output = smoke
    assert code == 0, output
    assert wall < SMOKE_LIMIT_SECONDS
    assert record["smoke"] is True
    (run,) = record["runs"]
    assert sorted(run["workloads"]) == sorted(declare.WORKLOAD_NAMES)
    for workload, entry in run["workloads"].items():
        assert sorted(entry["end_to_end"]) == sorted(declare.END_TO_END_NAMES)
        assert sorted(entry["per_layer"]) == sorted(declare.PER_LAYER_NAMES)
        assert entry["end_to_end_failed"] == 0, workload
        assert entry["per_layer_failed"] == 0, workload
        assert all(value > 0 for value in entry["end_to_end"].values()), workload


def test_smoke_prints_every_metric_with_its_unit(smoke):
    _, _, _, output = smoke
    lines = output.splitlines()
    for name in declare.END_TO_END_NAMES + declare.PER_LAYER_NAMES:
        unit = declare.UNITS[name]
        hits = [line for line in lines
                if line.split()[:1] == [name] and line.split()[-1] == unit]
        assert len(hits) >= len(declare.WORKLOADS), name


def test_smoke_closure_and_restored_wrappers(smoke):
    record, _, _, _ = smoke
    low, high = measure.CLOSURE_RANGE
    for workload, entry in record["runs"][0]["workloads"].items():
        assert low <= entry["per_layer"]["bench.closure_share"] <= high, workload


def test_result_validation_catches_undeclared_and_missing_names():
    metrics = {name: {"value": 1.0, "unit": declare.UNITS[name]}
               for name in declare.END_TO_END_NAMES}
    good = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    assert declare.validate_result(good, trace=False) == []
    extra = dict(metrics, **{"made.up": {"value": 1.0, "unit": "ms"}})
    assert declare.validate_result(dict(good, metrics=extra), trace=False)
    fewer = {k: v for k, v in metrics.items() if k != "setup_s"}
    assert declare.validate_result(dict(good, metrics=fewer), trace=False)
    wrong = dict(metrics, setup_s={"value": 1.0, "unit": "ms"})
    assert declare.validate_result(dict(good, metrics=wrong), trace=False)


def test_smoke_record_may_not_replace_baseline_or_contract():
    for target in ("bench/baseline.json", "BENCHMARK.json"):
        done = subprocess.run(
            RUN + ["--smoke", "--out", os.path.join(ROOT, target)],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert "record" in done.stderr


@pytest.fixture()
def threaded():
    program = workloads.build("solo-thread", seed=0)
    program.setup()
    program.prepare()
    yield program
    program.teardown()


def test_corrupted_digest_counts_as_failed(threaded, monkeypatch):
    real = workloads.space_digest
    calls = {"n": 0}

    def every_third_wrong(space):
        calls["n"] += 1
        digest = real(space)
        return "0" * len(digest) if calls["n"] % 3 == 0 else digest

    monkeypatch.setattr(workloads, "space_digest", every_third_wrong)
    samples = threaded.run_chunk(0.3, threaded.blocks(), None)
    failed = sum(1 for record in samples if not record["ok"])
    assert failed == len(samples) // 3 and failed > 0
    calibrator = workloads.Calibrator(threaded)
    calibrator.round()
    measure.annotate(samples, calibrator.tau())
    share = measure.ungated(threaded, samples)["bench.failed_share"]
    assert share == pytest.approx(failed / len(samples))
    result = measure._result(samples, {}, [])
    assert result["failed"] == failed and result["correct"] is False


def test_wrong_winner_value_counts_as_failed(threaded, monkeypatch):
    real = threaded.executor.run

    def lying(alternatives, parent=None):
        result = real(alternatives, parent=parent)
        result.value = "not what the winner returned"
        return result

    monkeypatch.setattr(threaded.executor, "run", lying)
    samples = threaded.run_chunk(0.1, threaded.blocks(), None)
    assert samples and not any(record["ok"] for record in samples)


def test_traced_pass_restores_every_original():
    before = {(t.owner, t.attr): vars(t.owner)[t.attr] for t in spans.targets()}
    result, _ = measure.traced("solo-thread", seed=0, seconds=0.6)
    assert result["correct"], result
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, (owner, attr)
    assert spans.Recorder.leftovers() == []
    closure = result["metrics"]["bench.closure_share"]["value"]
    low, high = measure.CLOSURE_RANGE
    assert low <= closure <= high
    assert os.path.exists(os.path.join(measure.OUT_DIR, "solo-thread.spans.jsonl"))
