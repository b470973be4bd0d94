"""Record a baseline: repeated benchmark runs, their quartiles, and the host.

Run from the root of a vatworld checkout:

    python3 perfbench/record.py --out perfbench/baseline.json

For every workload in BENCHMARK.json it runs ``perfbench/run.py`` once per
seed 1-10 (end-to-end metrics) and once traced with seed 1 (per-layer
metrics), then runs the tier-1 test suite once for context.  It prints each
metric's median and quartile spread as it goes and writes everything to
``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and IQR as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def host_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            found = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
        cpu = found.group(1) if found else cpu
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def tier1() -> dict:
    """Wall time of the tier-1 suite and its three slowest tests, measured once."""
    env = dict(os.environ, PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=3", "-p", "no:cacheprovider"],
        capture_output=True, text=True, env=env,
    )
    wall = time.perf_counter() - start
    slowest = re.findall(r"^(\d+\.\d+)s call\s+(\S+)$", done.stdout, re.M)
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return {"wall_s": wall, "summary": summary.strip("= "), "slowest": [{"test": t, "s": float(s)} for s, t in slowest]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = list(SEEDS)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
    record = {"commit": commit or None, "host": host_facts(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(_bench(name, seed, spec["run_seconds"], 0))
            print(name, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        traced = _bench(name, seeds[0], spec["run_seconds"], 1)
        metrics = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs]) for m in spec["end_to_end"]}
        for metric, s in metrics.items():
            print(f"  {name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": metrics,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    record["tier1"] = tier1()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
