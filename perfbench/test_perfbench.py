"""Self-tests of the benchmark harness.

Run from the checkout root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import re
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import machines as mk  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        (0, None, 0.0, 10.0),  # root
        (1, 0, 1.0, 4.0),  # child with a grandchild
        (2, 0, 3.0, 6.0),  # overlaps child 1: 3..4 counts once for the root
        (3, 1, 2.0, 3.0),  # grandchild
        (4, 0, 9.0, 12.0),  # runs past the root's end: clipped to 9..10
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def _written(tmp_path, name, seed, sub):
    work = tmp_path / sub
    work.mkdir()
    jobs = workloads.WORKLOADS[name](seed, str(work))
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return [j.argv for j in jobs], files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    argv_a, files_a = _written(tmp_path, name, 7, "a")
    argv_b, files_b = _written(tmp_path, name, 7, "b")
    assert files_a == files_b
    assert [a[1:] for a in argv_a] == [[x.replace("/b/", "/a/") for x in b[1:]] for b in argv_b]
    _, files_c = _written(tmp_path, name, 8, "c")
    assert files_c != files_a


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    printed_e2e = run.end_to_end([{"index": 0, "pass": 0, "seconds": 0.1, "outcome": "ok"}], 0.5)
    assert list(printed_e2e) == [m["name"] for m in spec["end_to_end"]]
    assert {k: u for k, (_, u) in printed_e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = tracing.per_layer_units()
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert {k: list(v) for k, v in layers.items()} == {m["name"]: [m["unit"], m["better"]] for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for name in list(printed_e2e) + list(layers):
        assert pattern.fullmatch(name) and len(name) <= 64


def test_failed_job_ranks_above_every_success():
    latencies = [float(k) for k in range(1, 20)] + [None]  # one failure in twenty
    assert run.percentile(latencies, 90) == 18.0
    assert run.percentile(latencies, 100) == float("inf")
    assert run.percentile([1000.0, None], 50) == 1000.0
    assert run.percentile([None, 1000.0], 90) == float("inf")
    records = [{"index": k, "pass": 0, "seconds": 0.001, "outcome": "ok"} for k in range(8)]
    records += [{"index": k, "pass": 0, "seconds": 0.5, "outcome": "failed"} for k in (8, 9)]
    metrics = run.end_to_end(records, 0.1)
    assert metrics["latency_p50_ms"][0] == pytest.approx(1.0)
    assert metrics["latency_p90_ms"][0] == pytest.approx(1008.0)  # the whole list, above any success
    assert metrics["ok_ratio"][0] == 0.8


def test_latency_is_the_fastest_run_and_any_failure_counts():
    records = [
        {"index": 0, "pass": k, "seconds": s, "outcome": "ok"} for k, s in enumerate((0.010, 0.030, 0.012))
    ] + [
        {"index": 1, "pass": k, "seconds": 0.001, "outcome": "failed" if k == 1 else "ok"} for k in range(3)
    ] + [{"index": 2, "pass": 0, "seconds": 0.039, "outcome": "ok"}]  # a long job that ran once
    metrics = run.end_to_end(records, 0.1)
    assert metrics["latency_p50_ms"][0] == pytest.approx(39.0)
    assert metrics["latency_p90_ms"][0] == pytest.approx(50.0)
    assert metrics["jobs_per_s"][0] == pytest.approx(2 / 0.050)
    assert metrics["ok_ratio"][0] == pytest.approx(2 / 3)  # per job, not per run


def test_counts_are_per_job_whatever_the_number_of_runs():
    records = [{"index": 0, "seconds": 1.0, "outcome": "ok"}]
    records += [{"index": 1, "seconds": 0.1, "outcome": "failed"}] * 2
    records += [{"index": 2, "seconds": s, "outcome": o} for s, o in ((0.3, "ok"), (0.1, "failed"), (0.2, "ok"))]
    fastest, failed = run.job_fastest(records)
    assert fastest == {0: 1.0, 1: 0.1, 2: 0.1} and failed == {1, 2}
    assert run.job_fastest(records[:2] + records[3:])[1] == failed


def test_jobs_above_the_p90_rank_run_once_and_cheap_ones_most(monkeypatch):
    # 20 jobs over 20 seconds: the failed job and the slowest rank above p90; over 1.25 s is long.
    costs = [0.001] * 14 + [0.006, 0.012, 0.3, 2.0, 0.05, 25.0]
    ran = []
    monkeypatch.setattr(run.Runner, "run", lambda self, job, i, k: ran.append(i) or {"seconds": costs[i]})
    monkeypatch.setattr(run, "job_fastest", lambda records: (dict(enumerate(costs)), {18}))
    jobs = [workloads.Job("info", ["info"], states=2, alphabet=2, chain=str(i)) for i in range(len(costs))]
    assert run.Runner().run_passes(jobs, 1, 20.0) == 2
    counts = [ran.count(i) for i in range(len(costs))]
    assert counts == [run.MAX_RUNS] * 14 + [4, run.MIN_RUNS, run.MIN_RUNS, run.MIN_RUNS, run.MIN_RUNS, 1]
    assert ran[: len(costs)] == run.pass_order(jobs, 1, 0)  # every job once before any rerun


def test_refusals_fail_and_answers_reach_the_check(monkeypatch):
    closure = json.dumps({"verdicts": [{"name": "error", "value": "belief closure exceeded 10 states"}]})
    assert run.refusal(1, closure, None) == "exit 1: belief closure exceeded 10 states"
    assert run.refusal(2, closure.replace("belief closure", "budget"), None).startswith("exit 2: budget")
    assert run.refusal(2, "", None) == "exit 2: unreadable report"
    assert run.refusal(None, "", "ValueError: boom") == "ValueError: boom"
    not_reversible = json.dumps({"verdicts": [{"name": "reversible", "value": False}]})
    assert run.refusal(1, not_reversible, None) == ""
    assert run.refusal(0, closure, None) == ""

    class Job:
        command, argv, states, alphabet, length = "msp", ["msp", "x.json"], 3, 4, 0

        def check(self, code, report):
            raise AssertionError("a refusal must not reach the check")

    monkeypatch.setattr(run, "call_cli", lambda argv: (1, closure, 0.01, None))
    record = run.Runner().run(Job(), 0, 0)
    assert record["outcome"] == "failed" and "belief closure" in record["reason"]


def test_warm_up_runs_whole_smallest_chains_in_list_order():
    def job(command, chain, states):
        return workloads.Job(command, [command, chain], states=states, alphabet=4, chain=chain)

    jobs = [
        job("msp", "big", 9), job("minimize", "big", 3), job("epsilon", "big", 9),
        job("msp", "small", 2), job("minimize", "small", 2),
        job("msp", "mid", 4), job("minimize", "mid", 4), job("epsilon", "mid", 4),
    ]
    assert run.warm_up_order(jobs) == [3, 4, 5, 6, 7]


def test_own_inputs_match_the_library_constructors():
    from vatworld.core import make_card_deck
    from vatworld.fixtures import ALL_FIXTURES

    for reds, blacks in ((1, 2), (2, 2), (3, 2)):
        for variant in ("flip_shuffle", "cyclic"):
            ours = mk.card_deck(reds, blacks, variant)
            theirs = make_card_deck(reds, blacks, variant)
            assert ours.states == theirs.states
            assert np.array_equal(ours.kernel, theirs.kernel)
    for m in mk.fixtures():
        theirs = ALL_FIXTURES[m.name]()
        assert np.array_equal(m.kernel, theirs.kernel) and np.array_equal(m.initial, theirs.initial)


def test_planted_copies_are_bisimilar():
    from vatworld.minimize import coarsest_bisimulation

    m = mk.dense_with_copies(np.random.default_rng(3), 4, 2, 2, 2, "planted")
    t = workloads._transducer(m)
    assert coarsest_bisimulation(t).n_classes == 4 == m.reduced_max


def test_tracer_patches_rebound_names_and_restores_them():
    import vatworld.cli
    import vatworld.retro

    original = vatworld.retro.smooth
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vatworld.cli.smooth is vatworld.retro.smooth is not original
    finally:
        tracer.uninstall()
    assert vatworld.cli.smooth is vatworld.retro.smooth is original
