"""vatworld benchmark: seeded CLI workloads with every output checked.

Run from the root of a vatworld checkout:

    python3 perfbench/run.py --workload structure-mix --seed 1 --seconds 12 --trace 0

Each job is one ``vatworld`` command, run in this process through
``vatworld.cli.main(argv)`` with stdout captured: a closed loop with one
client and no think time, so no job waits in a queue and no layer reports
wait time.  A first pass runs every job once, visiting the inputs in a
seeded order.  Ranked by that run, failures last, each job of the
slowest tenth runs once more unless its run took a sixteenth of
``--seconds``; each of the others reruns, two to six runs in all, the
more the cheaper it is next to the median job.  All the reruns go in one
second pass in a seeded random order.  Passes of the whole list follow
until at least ``--seconds`` of job time have passed.  Each job's
output is checked between jobs, outside its timing.  A job fails on a
refusal (a non-zero exit with an error verdict), an exception, or output
that fails its check; ``correct`` turns false only when an answer
contradicts a known fact.  ``attempted`` and ``failed`` count jobs, not
runs, so they depend on the seed alone.

End-to-end metrics (``--trace 0``): a job's latency is its fastest run, and
a job that failed in any run ranks above every success; ``jobs_per_s`` is
verified jobs per second of the time the list takes at each job's fastest.
The host is shared, and its speed drops by up to two fifths in spells of a
second to minutes; other tenants only ever slow a job down, so the fastest
of runs spread over the whole run is the steadiest estimate of what the
program itself costs.  ``setup_s`` is the median of three fresh
interpreters' times to import vatworld, plus the median of three set-ups
(empty the work directory, generate and write the inputs, and run as
warm-up every job of the smallest chain that holds each command).

``--trace 1`` runs one pass in which each job runs once untraced and once
with spans around vatworld's public functions, the two in alternating
order, and prints the per-layer sums of the traced runs plus the tracing
overhead (traced minus untraced wall).
Job records and spans go to ``.perfbench-work/<workload>/``.

The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 3
MIN_RUNS, MAX_RUNS = 2, 6  # runs of a job, unless it is long and above the p90 rank
RERUN_SPAN = 24  # a job at or below that rank runs about as long as this many p50 jobs
LONG_SHARE = 1 / 16  # of --seconds: a longer first run is long
WORK_DIR = ".perfbench-work"
WAIT_NOTE = "  one client in a closed loop: nothing queues, so no layer reports wait time"


def percentile(latencies, q: float) -> float:
    """Nearest-rank percentile; a failed job (None) ranks above every success.

    When the rank lands on a failed job there is no finite latency to report,
    so the result is infinite.
    """
    ranked = sorted(math.inf if x is None else x for x in latencies)
    return ranked[max(math.ceil(q / 100.0 * len(ranked)) - 1, 0)]


def _import_vatworld(root: str) -> float:
    """Import vatworld from ``root/src``, never an installed copy.

    Returns the median time to import it in a fresh interpreter, over
    SETUP_REPEATS interpreters started one after another.
    """
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "vatworld", "cli.py")):
        raise SystemExit(f"perfbench: no vatworld sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import vatworld.cli  # noqa: F401

    if not os.path.abspath(sys.modules["vatworld"].__file__).startswith(src):
        raise SystemExit("perfbench: imported vatworld from outside the checkout")
    probe = (
        f"import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
        "import vatworld.cli; print(time.perf_counter() - t)"
    )
    times = [
        float(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(times)


def call_cli(argv):
    """Run one vatworld command in-process: (exit code, stdout, seconds, error)."""
    import vatworld.cli

    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = vatworld.cli.main(["--format", "machine"] + argv)
    except Exception as exc:  # a crash is a failed job, not a benchmark error
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start, error


def _last_error(text: str) -> str:
    try:
        verdicts = json.loads(text).get("verdicts", [])
    except ValueError:
        return "unreadable report"
    errors = [v["value"] for v in verdicts if v["name"] == "error"]
    return str(errors[-1]) if errors else ""


def refusal(code, text: str, error) -> str:
    """Why a run gave no answer, or "" when it gave one.

    A run gives no answer when it raised, or exited non-zero with an error
    verdict (exit 1 for a belief closure refusal, 2 for the rest).  ``reverse``
    exits 1 with no error verdict when the machine is not reversible, which
    is an answer.
    """
    if error is not None:
        return error
    if code != 0:
        reason = _last_error(text)
        if reason:
            return f"exit {code}: {reason}"
    return ""


def pass_order(jobs, seed: int, k: int) -> list:
    """Job indices for pass k: chains in a seeded order, each chain's jobs in list order."""
    chains = {}
    for index, job in enumerate(jobs):
        chains.setdefault(job.chain, []).append(index)
    order = list(chains.values())
    random.Random(f"{seed}/{k}").shuffle(order)
    return [index for chain in order for index in chain]


class Runner:
    """Runs jobs through the CLI entry point and classifies each outcome."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records = []

    def run(self, job, index: int, pass_k: int) -> dict:
        from workloads import Failed, Wrong

        job_id = len(self.records)
        # Each real command runs in a fresh process; collect the previous
        # job's and the checks' garbage now, so none of it is charged here.
        gc.collect()
        if self.tracer is not None:
            self.tracer.begin_job(job_id, job.command)
        code, text, seconds, error = call_cli(job.argv)
        if self.tracer is not None:
            self.tracer.end_job()

        outcome, reason = "ok", refusal(code, text, error)
        if reason:
            outcome = "failed"
        else:
            try:
                job.check(code, json.loads(text))
            except Failed as exc:
                outcome, reason = "failed", str(exc)
            except Wrong as exc:
                outcome, reason = "wrong", str(exc)
            except Exception as exc:  # unreadable output or artifact
                outcome, reason = "wrong", f"{type(exc).__name__}: {exc}"
        record = {
            "job": job_id,
            "index": index,
            "pass": pass_k,
            "command": job.command,
            "argv": " ".join(job.argv)[:200],
            "states": job.states,
            "alphabet": job.alphabet,
            "length": job.length,
            "seconds": seconds,
            "exit": code,
            "outcome": outcome,
            "reason": reason[:300],
        }
        self.records.append(record)
        return record

    def run_passes(self, jobs, seed: int, seconds: float) -> int:
        """Run every job once, then the reruns; returns the number of passes.

        The first pass ranks the jobs as the latency percentiles do.  The
        jobs above the p90 rank feed no percentile, only ``jobs_per_s``;
        they run MIN_RUNS times, or once if the first run took LONG_SHARE
        of ``seconds``, so that the run keeps to its time.  Each of the
        others runs for about RERUN_SPAN first runs of the p50 job, in
        MIN_RUNS to MAX_RUNS runs: counts set by ratios of first runs, so
        that a slow host does not cut them.  All reruns go in one second
        pass in a seeded random order, so a job's runs are spread over the
        run and seldom all fall in a slow spell of the host.  Passes of the
        whole list follow until the job wall reaches ``seconds``.
        """
        wall = 0.0

        def run_pass(k: int, todo) -> None:
            nonlocal wall
            for i in todo:
                wall += self.run(jobs[i], i, k)["seconds"]

        run_pass(0, pass_order(jobs, seed, 0))
        first, failed = job_fastest(self.records)
        by_rank = sorted(first, key=lambda i: math.inf if i in failed else first[i])
        t50 = first[by_rank[math.ceil(0.5 * len(by_rank)) - 1]]
        p90 = math.ceil(0.9 * len(by_rank))
        runs = {i: max(MIN_RUNS, min(MAX_RUNS, int(RERUN_SPAN * t50 / first[i]))) for i in by_rank[:p90]}
        runs.update({i: 1 if first[i] > seconds * LONG_SHARE else MIN_RUNS for i in by_rank[p90:]})
        reruns = [i for i, n in runs.items() for _ in range(n - 1)]
        random.Random(f"{seed}/reruns").shuffle(reruns)
        run_pass(1, reruns)
        k = 2
        while wall < seconds:
            run_pass(k, pass_order(jobs, seed, k))
            k += 1
        return k


def warm_up_order(jobs) -> list:
    """Indices of the warm-up jobs: every job of the smallest chain holding
    each command, in list order, so each job's inputs from an earlier
    command of its chain exist."""
    chains = {}
    for index, job in enumerate(jobs):
        chains.setdefault(job.chain, []).append(index)
    size = {chain: max(jobs[i].size for i in indices) for chain, indices in chains.items()}
    picked = set()
    for command in dict.fromkeys(job.command for job in jobs):
        holders = [chain for chain, indices in chains.items() if any(jobs[i].command == command for i in indices)]
        picked.add(min(holders, key=size.get))
    return [index for index, job in enumerate(jobs) if job.chain in picked]


def setup(name: str, seed: int, work: str):
    """Empty the work directory, generate and write the inputs, and warm up.

    Returns (job list, seconds).  A warm-up job that gives no answer stops
    the benchmark: every later figure would rest on a cold or missing input.
    """
    from workloads import WORKLOADS

    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = WORKLOADS[name](seed, work)
    for k in warm_up_order(jobs):
        code, text, _, error = call_cli(jobs[k].argv)
        reason = refusal(code, text, error)
        if reason:
            raise SystemExit(f"perfbench: warm-up {' '.join(jobs[k].argv)} gave no answer: {reason}")
    return jobs, time.perf_counter() - start


def job_fastest(records) -> tuple:
    """(seconds of each job's fastest run by job index, indices of the jobs
    that failed in any run)."""
    fastest, failed = {}, set()
    for r in records:
        fastest[r["index"]] = min(fastest.get(r["index"], math.inf), r["seconds"])
        if r["outcome"] != "ok":
            failed.add(r["index"])
    return fastest, failed


def end_to_end(records, setup_s: float) -> dict:
    """The six end-to-end metrics from the records of every timed run.

    A job's latency is its fastest run, and a job that failed in any run
    ranks above every success.  ``jobs_per_s`` is the number of verified
    jobs over the time the whole list takes at each job's fastest, and
    ``ok_ratio`` their share of the list (1 - fail_ratio, counted per job
    so that it does not depend on how many runs fit in the time).  A
    percentile that lands on a failed job reads as that whole-list time,
    which no single success can reach.
    """
    fastest, failed = job_fastest(records)
    total = sum(fastest.values())
    passed = len(fastest) - len(failed)
    latencies = [None if i in failed else t * 1000.0 for i, t in fastest.items()]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (passed / total, "1/s"),
        "latency_p50_ms": (min(percentile(latencies, 50), total * 1000.0), "ms"),
        "latency_p90_ms": (min(percentile(latencies, 90), total * 1000.0), "ms"),
        "ok_ratio": (passed / len(latencies), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _summary(name, records, metrics, extra) -> None:
    fastest, failed_jobs = job_fastest(records)
    print(f"workload {name}: {len(fastest)} jobs attempted, {len(failed_jobs)} failed "
          f"(fail_ratio {len(failed_jobs) / len(fastest):.4f}) in {len(records)} runs")
    failed = [r for r in records if r["outcome"] != "ok"]
    by_reason = {}
    for r in failed:
        key = f"{r['outcome']} {r['command']}: {r['reason'][:90]}"
        by_reason[key] = by_reason.get(key, 0) + 1
    for key, count in sorted(by_reason.items()):
        print(f"  {count:4d} x {key}")
    for line in extra:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")


def _slowest_jobs(records, tracer, count: int) -> list:
    """Where the slowest traced jobs spent their time, layer by layer."""
    per_job = {}
    for job, name, ms in tracer.self_ms():
        layers = per_job.setdefault(job, {})
        layers[name] = layers.get(name, 0.0) + ms
    lines = []
    for r in sorted(records, key=lambda r: -r["seconds"])[:count]:
        top = sorted(per_job.get(r["job"], {}).items(), key=lambda kv: -kv[1])[:4]
        parts = ", ".join(f"{name} {ms:.0f} ms ({ms / 10.0 / r['seconds']:.0f}%)" for name, ms in top)
        lines.append(f"  slow job {r['argv'][:70]}: {r['seconds'] * 1000.0:.0f} ms; self time {parts}")
    return lines


def _traced(jobs, order):
    """One pass where each job runs untraced and traced, back to back.

    Pairing the two runs of a job keeps the host's slow spells out of the
    overhead figure.  The second run of a pair finds its memory already
    mapped and its files cached, so the traced run goes first on every other
    job and that advantage falls to each side equally often.  The wrappers
    are in place only for the traced run.
    """
    from tracing import Tracer, per_layer_units

    plain, tracer = Runner(), Tracer()
    runner = Runner(tracer)
    untraced_wall = traced_wall = 0.0
    for n, i in enumerate(order):
        for traced in (n % 2 == 1, n % 2 == 0):
            if not traced:
                untraced_wall += plain.run(jobs[i], i, 0)["seconds"]
                continue
            tracer.install()
            try:
                traced_wall += runner.run(jobs[i], i, 0)["seconds"]
            finally:
                tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_ms"] = (traced_wall - untraced_wall) * 1000.0
    metrics = {k: (values[k], unit) for k, (unit, _) in per_layer_units().items()}
    extra = [f"  traced wall {traced_wall:.3f} s, untraced wall {untraced_wall:.3f} s", WAIT_NOTE]
    return runner, tracer, metrics, extra + _slowest_jobs(runner.records, tracer, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["structure-mix", "deck-scale", "trace-inference"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_s = _import_vatworld(os.getcwd())
    work = os.path.join(WORK_DIR, args.workload)
    setups = []
    for _ in range(SETUP_REPEATS):
        jobs, took = setup(args.workload, args.seed, work)
        setups.append(took)
    setup_s = import_s + statistics.median(setups)
    # Move everything set-up made out of the collector's view, so the
    # collection before each job and the program's own full collections do
    # not walk the benchmark's job lists and checks.
    gc.collect()
    gc.freeze()

    if args.trace:
        runner, tracer, metrics, extra = _traced(jobs, pass_order(jobs, args.seed, 0))
        tracer.write(os.path.join(work, "spans.jsonl"))
    else:
        runner = Runner()
        passes = runner.run_passes(jobs, args.seed, args.seconds)
        metrics = end_to_end(runner.records, setup_s)
        extra = [
            f"  {len(jobs)} jobs, {len(runner.records)} runs in {passes} passes, "
            f"job wall {sum(r['seconds'] for r in runner.records):.3f} s; "
            f"latency samples {len(jobs)} (fastest run per job)",
            f"  setup {statistics.median(setups):.3f} s + import {import_s:.3f} s (medians of {SETUP_REPEATS})",
            WAIT_NOTE,
        ]

    records = runner.records
    with open(os.path.join(work, "jobs.jsonl"), "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    _summary(args.workload, records, metrics, extra)
    fastest, failed = job_fastest(records)
    result = {
        "correct": not any(r["outcome"] == "wrong" for r in records),
        "attempted": len(fastest),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
