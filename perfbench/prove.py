"""Measure the benchmark's own steadiness and write ``RESULTS.json``.

Run from the root of a checkout::

    python3 perfbench/prove.py

For each of two sets and every workload in ``BENCHMARK.json`` it runs
``run.py`` for ``run_seconds`` once at the default seed
(the pinned outputs are checked there), once per held-out seed, and,
in the first set, once traced at the default seed.  Runs are made one
after another, never in parallel.  For every end-to-end metric it
records the median, the quartiles and the spread (interquartile range
over median) of the held-out runs, and how far each later set's median
moved from the first set's.  Nothing is compared with a time measured
on another machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2
#: seeds not used to choose any size
HELDOUT_SEEDS = list(range(1, 11))

#: which end-to-end metric each layer should move, on which workload,
#: and the workload where each open optimisation should show no change
PREDICTIONS = {
    "layers": [
        {"layers": ["sim", "hw", "spdk"], "moves": "ops_per_s",
         "workload": "batch_read",
         "note": "54 / 19 / 6 % of self time at the baseline"},
        {"layers": ["spdk", "reliability"], "moves": "ops_per_s",
         "workload": "batch_mixed_faults"},
        {"layers": ["serving", "cache", "core", "obs"], "moves": "ops_per_s",
         "workload": "serving_kv"},
        {"layers": ["net", "backends", "workloads"], "moves": "ops_per_s",
         "workload": "tiered_zipf"},
        {"layers": ["obs"], "moves": "nothing", "workload": "batch_read",
         "note": "telemetry off: obs.self_us_per_op reads about 0"},
        {"layers": ["sim"], "counter": "sim.events_per_op",
         "moves": "ops_per_s",
         "workload": ["batch_read", "batch_mixed_faults"]},
        {"layers": ["serving", "obs"], "moves": "peak_rss_mb",
         "workload": "serving_kv"},
        {"layers": ["workloads", "net"], "moves": "setup_s",
         "workload": "tiered_zipf",
         "note": "trace generation and the warm pass"},
    ],
    "items": [
        {"item": "batch-level SSD and link model", "moves": ["batch_read"],
         "unchanged": ["tiered_zipf", "batch_mixed_faults"]},
        {"item": "one submission path", "moves": ["batch_mixed_faults"],
         "unchanged": ["tiered_zipf"],
         "must_not_slow": ["batch_read"]},
        {"item": "shared Residency / ReplicaSet cores",
         "moves": ["serving_kv", "tiered_zipf"], "unchanged": ["batch_read"]},
        {"item": "counter audit", "moves": ["serving_kv"],
         "unchanged": ["batch_read"]},
    ],
    "pinned": (
        "hw.cmds_per_op, core.reactor_busy_frac, reliability.*, "
        "cache.hit_rate, serving.kv_*, net.* are simulated counters: "
        "a performance change must not move them"
    ),
}


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    rounds = [line.split() for line in lines if line.startswith("round ")]
    result["rounds"] = len(rounds)
    if not trace:
        # the raw wall-clock throughput, beside the calibrated one
        result["wall_ops_per_s"] = (
            sum(int(words[2]) for words in rounds)
            / sum(float(words[5]) for words in rounds)
        )
    result["seed"] = seed
    if trace:
        result["table"] = [
            line for line in lines if line.startswith(("layer table", "  "))
            and not line.startswith("  pin ")
        ]
    status = "ok" if result["correct"] else "FAILED"
    print(f"{workload} seed {seed} trace {trace}: {status}, "
          f"{result['rounds']} rounds", flush=True)
    if not result["correct"]:
        print(proc.stdout, proc.stderr, flush=True)
    return result


def _summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def _header(bench):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit, "host": platform.node(), "cpu": cpu,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"], "sets": SETS,
        "heldout_seeds": HELDOUT_SEEDS,
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import DEFAULT_SEED, WORKLOADS

    names = [w["name"] for w in bench["workloads"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    e2e = [m["name"] for m in bench["end_to_end"]]
    report = {"header": _header(bench), "predictions": PREDICTIONS,
              "workloads": {}}
    for name in names:
        cls = WORKLOADS[name]
        report["workloads"][name] = {
            "why": why[name], "op_unit": cls.op_unit, "loop": cls.loop,
            "sizes": cls.sizes, "sets": [],
        }
    for set_index in range(SETS):
        for name in names:
            entry = report["workloads"][name]
            default = _run(name, DEFAULT_SEED, seconds, 0)
            heldout = [_run(name, seed, seconds, 0)
                       for seed in HELDOUT_SEEDS]
            runs = [default, *heldout]
            entry["sets"].append({
                "all_correct": all(r["correct"] for r in runs),
                "rounds": [r["rounds"] for r in runs],
                "default_seed": {
                    key: default["metrics"][key]["value"] for key in e2e
                },
                "heldout": {
                    key: _summary([r["metrics"][key]["value"]
                                   for r in heldout])
                    for key in e2e
                },
                "heldout_wall_ops_per_s": _summary(
                    [r["wall_ops_per_s"] for r in heldout]
                ),
            })
            if set_index == 0:
                traced = _run(name, DEFAULT_SEED, seconds, 1)
                entry["traced"] = {
                    "correct": traced["correct"],
                    "table": traced["table"],
                    "metrics": {
                        key: value["value"]
                        for key, value in traced["metrics"].items()
                    },
                }
    for entry in report["workloads"].values():
        first = entry["sets"][0]["heldout"]
        for later in entry["sets"][1:]:
            later["median_shift_vs_set0"] = {
                key: later["heldout"][key]["median"] / first[key]["median"] - 1
                for key in e2e
            }
        # the held-out seeds must land where the seed the sizes were
        # chosen with does
        entry["heldout_vs_default_seed"] = {
            key: first[key]["median"] / entry["sets"][0]["default_seed"][key]
            for key in e2e
        }
    (BENCH_DIR / "RESULTS.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, entry in report["workloads"].items():
        for index, result in enumerate(entry["sets"]):
            spreads = ", ".join(
                f"{key} {result['heldout'][key]['median']:.4g} "
                f"(spread {result['heldout'][key]['spread']:.3f})"
                for key in e2e
            )
            wall = result["heldout_wall_ops_per_s"]
            print(f"{name} set {index}: correct={result['all_correct']} "
                  f"{spreads}; wall-clock ops_per_s {wall['median']:.4g} "
                  f"(spread {wall['spread']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
