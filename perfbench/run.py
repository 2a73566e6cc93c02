"""Host-throughput benchmark of the CAM simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch_read --seed 0 --seconds 20 --trace 0

The benchmark builds the stack from ``src/`` through public entry points
only, and repeats rounds of the workload until ``--seconds`` of timed
work have run (at least two rounds).  A round builds a fresh stack,
generates its inputs from ``--seed``, runs the timed ops, then checks
the simulated outputs:

* invariants that hold for every seed (every request completes once,
  no error surfaces, the tier drains after ``sync()``);
* for the default seed, every simulated output against ``pins.json``;
* every round of a run, and every run of the same source tree and seed,
  must give identical simulated outputs and event counts (and, traced,
  identical call counts).  A divergence is an error, not noise.

If a check fails, every op of the run counts as failed.

Host speed on a shared machine drifts by tens of percent over minutes,
so untraced rounds also time calibration slices (``calibrate.py``)
before, between and after their timed steps.  The end-to-end times are
in reference seconds: each round's wall time divided by the host time of
one calibration unit measured in that round.  Wall-clock figures are
printed per round and reported with the per-layer metrics.

``--trace 0`` reports the end-to-end metrics from untraced rounds.
``--trace 1`` runs one untraced reference round, then traced rounds
under cProfile, and reports the per-layer metrics, the tracing overhead
and a layer table.  The benchmark's own spans (set-up, each ring,
``engine.run``, ``replay``, verify) are kept in memory and written to
``.perfbench_out/`` at the end of a traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REPRO = SRC / "repro"
OUT_DIR = ROOT / ".perfbench_out"
#: timed rounds of a run, at least: the exactness checks compare rounds
MIN_ROUNDS = 2
#: fresh interpreters that time the imports again, beside this one
IMPORT_REPEATS = 4
#: calibration slices timed just before and just after a round's timed
#: steps; the batch workloads add one between consecutive rings
EDGE_SLICES = 3


class Spans:
    """The benchmark's own spans: name, start, end and parent, in memory."""

    def __init__(self):
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name, **tags):
        record = {
            "id": len(self.records), "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start_s": time.perf_counter() - _START, "tags": tags,
        }
        self.records.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_s"] = time.perf_counter() - _START


def _load_program():
    """Import the simulator from this checkout's ``src/`` and nowhere else."""
    if not (REPRO / "__init__.py").is_file():
        print(f"perfbench: {REPRO} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import repro

    if Path(repro.__file__).resolve().parent != REPRO.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{REPRO}", file=sys.stderr)
        sys.exit(2)


def _import_seconds():
    """Import time of the simulator and every workload module, timed in
    fresh interpreters (their bytecode caches are warm by now)."""
    code = (
        "import time; start = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
        "import workloads; print(time.perf_counter() - start)"
    )
    return [
        float(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def _source_digest():
    """Digest of the simulator's and the benchmark's sources, and of the
    interpreter and numpy versions (both change call counts)."""
    import numpy

    digest = hashlib.sha256(
        f"{sys.version} numpy {numpy.__version__}".encode()
    )
    for path in sorted([*REPRO.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _per_op(value, ops, scale=1.0):
    return scale * value / ops if ops else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_counters(out, ops):
    """The simulated per-layer counters (pinned with the outputs)."""
    reads = out.get("ssd_reads", [])
    writes = out.get("ssd_writes", [])
    kv_total = out.get("kv_hits", 0) + out.get("kv_misses", 0)
    cache_total = out.get("gpu_cache_hits", 0) + out.get("gpu_cache_misses", 0)
    tier_total = out.get("tier_hits", 0) + out.get("tier_misses", 0)
    return {
        "sim.events_per_op": _per_op(out["events"], ops),
        "hw.cmds_per_op": _per_op(sum(reads) + sum(writes), ops),
        "core.reactor_busy_frac": out.get("reactor_busy_frac", 0.0),
        "reliability.retries_per_kop": _per_op(out.get("retries", 0), ops, 1e3),
        "reliability.faults_per_kop": _per_op(out.get("faults", 0), ops, 1e3),
        "cache.hit_rate": _ratio(out.get("gpu_cache_hits", 0), cache_total),
        "serving.kv_hit_rate": _ratio(out.get("kv_hits", 0), kv_total),
        "serving.kv_evictions_per_turn": _per_op(
            out.get("kv_evictions", 0), ops
        ),
        "net.tier_hit_rate": _ratio(out.get("tier_hits", 0), tier_total),
        "net.flushed_pages_per_kop": _per_op(
            out.get("flushed_pages", 0), ops, 1e3
        ),
        "net.remote_reads_per_kop": _per_op(
            out.get("remote_reads", 0), ops, 1e3
        ),
        "net.hedged_reads_per_kop": _per_op(
            out.get("hedged_reads", 0), ops, 1e3
        ),
    }


class Run:
    """One benchmark run: rounds, checks and the metrics they give."""

    def __init__(self, name, seed, seconds, trace):
        from workloads import DEFAULT_SEED, WORKLOADS

        self.workload_cls = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spans = Spans()
        self.rounds = []
        self.problems = []
        #: ops of every round that got past set-up, finished or not
        self.attempted = 0
        pins = json.loads((BENCH_DIR / "pins.json").read_text())
        self.pins = pins.get(name) if seed == DEFAULT_SEED else None
        if trace:
            from layers import LayerProfile

            self.profile = LayerProfile(REPRO, BENCH_DIR)
        from calibrate import Calibrator

        self.calibrator = Calibrator()

    def one_round(self, traced):
        spans = self.spans
        # free the previous round's cycles now, and start every round
        # from the same collector state: otherwise generator finalisers
        # run inside the timed ops at host-dependent points
        gc.collect()
        workload = self.workload_cls()
        calibrator = self.calibrator
        first_slice = len(calibrator.slices)
        paused = []

        def pause():
            # a calibration slice between two timed steps, kept out of
            # their time
            paused.append(calibrator.slice())

        with spans.span("round", traced=traced):
            t0 = time.perf_counter()
            with spans.span("setup"):
                workload.setup(self.seed)
            self.attempted += workload.ops()
            t1 = time.perf_counter()
            layers = None
            if traced:
                t2 = time.perf_counter()
                ops, layers = self.profile.measure(
                    lambda: workload.run(spans, lambda: None)
                )
                t3 = time.perf_counter()
            else:
                with spans.span("calibrate"):
                    for _ in range(EDGE_SLICES):
                        calibrator.slice()
                t2 = time.perf_counter()
                ops = workload.run(spans, pause)
                t3 = time.perf_counter()
                with spans.span("calibrate"):
                    for _ in range(EDGE_SLICES):
                        calibrator.slice()
            t4 = time.perf_counter()
            with spans.span("verify"):
                out = workload.outputs()
                checks = workload.invariants(out)
        self.rounds.append({
            "setup_s": t1 - t0, "wall_s": t3 - t2 - sum(paused),
            "measure_s": t4 - t1, "ops": ops,
            "unit_s": None if traced else calibrator.unit_s(first_slice),
            "outputs": out, "checks": checks, "layers": layers,
            "traced": traced,
        })

    def execute(self):
        if self.trace:
            # the untraced reference round: counters and overhead base
            self.one_round(traced=False)
        rounds = measured = 0
        while rounds < MIN_ROUNDS or measured < self.seconds:
            self.one_round(traced=self.trace)
            rounds += 1
            measured += self.rounds[-1]["measure_s"]

    # -- checks ---------------------------------------------------------
    def check(self):
        first = self.rounds[0]
        for index, rnd in enumerate(self.rounds):
            for name, ok, detail in rnd["checks"]:
                if not ok:
                    self.problems.append(
                        f"round {index}: invariant '{name}' failed: {detail}"
                    )
            if rnd["outputs"] != first["outputs"]:
                self.problems.append(
                    f"round {index}: simulated outputs differ from round 0"
                )
        traced = [r["layers"] for r in self.rounds if r["traced"]]
        calls = [{k: v[1] for k, v in layers.items()} for layers in traced]
        if any(c != calls[0] for c in calls[1:]):
            self.problems.append(
                f"call counts differ between traced rounds: {calls}"
            )
        if self.pins is not None:
            for key, expected in self.pins.items():
                got = first["outputs"].get(key)
                same = got == expected
                print(f"  pin {key}: expected {expected!r} got {got!r} "
                      f"{'ok' if same else 'MISMATCH'}")
                if not same:
                    self.problems.append(
                        f"pinned {key}: expected {expected!r}, got {got!r}"
                    )
        self._check_against_earlier_runs(calls[0] if calls else None)

    def _check_against_earlier_runs(self, calls):
        """Runs of the same source tree and seed must agree exactly."""
        record = {"outputs": self.rounds[0]["outputs"]}
        if calls is not None:
            record["calls"] = calls
        path = OUT_DIR / "exact" / (
            f"{self.name}-seed{self.seed}-{_source_digest()}.json"
        )
        if path.is_file():
            earlier = json.loads(path.read_text())
            for key, value in record.items():
                if key in earlier and earlier[key] != value:
                    self.problems.append(
                        f"{key} differ from an earlier run of this source "
                        f"tree and seed ({path.name})"
                    )
            earlier.update(record)
            record = earlier
        path.parent.mkdir(parents=True, exist_ok=True)
        # replace, never rewrite in place: a concurrent run must not
        # read a half-written record
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(record, sort_keys=True))
        os.replace(partial, path)

    # -- metrics ---------------------------------------------------------
    def end_to_end(self, import_s):
        """In reference seconds: each round's wall times divided by its
        own calibration unit.  Throughput is all ops over all reference
        seconds; set-up times are medians."""
        rounds = self.rounds
        unit_s = statistics.median(r["unit_s"] for r in rounds)
        imports = [import_s, *_import_seconds()]
        print(f"imports: {', '.join(f'{t:.3f}' for t in imports)} s wall; "
              f"median calibration unit {unit_s:.3f} s")
        return {
            "ops_per_s": (
                sum(r["ops"] for r in rounds)
                / sum(r["wall_s"] / r["unit_s"] for r in rounds)
            ),
            "setup_s": (
                statistics.median(imports) / unit_s
                + statistics.median(r["setup_s"] / r["unit_s"] for r in rounds)
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ),
        }

    def per_layer(self):
        from layers import LAYERS

        reference = self.rounds[0]
        traced = [r for r in self.rounds if r["traced"]]
        ops = sum(r["ops"] for r in traced)
        metrics = {}
        for layer in LAYERS:
            self_s = sum(r["layers"][layer][0] for r in traced)
            metrics[f"{layer}.self_us_per_op"] = _per_op(self_s, ops, 1e6)
            metrics[f"{layer}.calls_per_op"] = _per_op(
                traced[0]["layers"][layer][1], traced[0]["ops"]
            )
        metrics.update(
            _layer_counters(reference["outputs"], reference["ops"])
        )
        metrics["host.wall_ops_per_s"] = reference["ops"] / reference["wall_s"]
        metrics["host.calibration_unit_s"] = reference["unit_s"]
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced)
            / reference["wall_s"]
        )
        return metrics

    def layer_table(self, metrics):
        from layers import LAYERS

        traced = [r for r in self.rounds if r["traced"]]
        total = sum(sum(r["layers"][layer][0] for r in traced)
                    for layer in LAYERS)
        lines = [
            f"layer table: {self.name} seed {self.seed}, "
            f"{len(traced)} traced rounds, tracing overhead "
            f"{metrics['trace.overhead_ratio']:.2f}x "
            f"(traced wall / untraced wall)",
            f"  {'layer':<12}{'share':>8}{'self_us/op':>12}{'calls/op':>11}",
        ]
        for layer in LAYERS:
            self_s = sum(r["layers"][layer][0] for r in traced)
            lines.append(
                f"  {layer:<12}{100 * self_s / total:>7.1f}%"
                f"{metrics[layer + '.self_us_per_op']:>12.3f}"
                f"{metrics[layer + '.calls_per_op']:>11.2f}"
            )
        calls = sum(metrics[f"{layer}.calls_per_op"] for layer in LAYERS)
        lines.append(f"  {'total':<12}{100.0:>7.1f}%{'':>12}{calls:>11.2f}")
        return lines

    def write_trace_files(self, table):
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{self.name}-seed{self.seed}"
        (OUT_DIR / f"spans-{stem}.json").write_text(
            json.dumps(self.spans.records)
        )
        (OUT_DIR / f"layers-{stem}.txt").write_text("\n".join(table) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _load_program()
    from workloads import WORKLOADS

    # every module a workload uses is imported by now
    import_s = time.perf_counter() - _START

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
        run.check()
    except Exception:  # any raised op fails the run; report, don't crash
        traceback.print_exc()
        run.problems.append("an operation raised")

    if args.trace:
        traced = any(r["traced"] for r in run.rounds)
        metrics = run.per_layer() if traced else {}
    else:
        metrics = run.end_to_end(import_s) if run.rounds else {}
    # names and units come from BENCHMARK.json, so the two cannot drift
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    if metrics and set(metrics) != set(units):
        run.problems.append(
            f"metrics {sorted(set(metrics) ^ set(units))} are not both "
            "reported and declared in BENCHMARK.json"
        )

    for index, rnd in enumerate(run.rounds):
        unit = (f", calibration unit {rnd['unit_s']:.3f} s"
                if rnd["unit_s"] else "")
        print(f"round {index}{' traced' if rnd['traced'] else ''}: "
              f"{rnd['ops']} ops in {rnd['wall_s']:.3f} s wall "
              f"(setup {rnd['setup_s']:.3f} s{unit}), "
              f"sim_end {rnd['outputs']['sim_end']!r}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace and metrics:
        table = run.layer_table(metrics)
        print("\n".join(table))
        run.write_trace_files(table)
    attempted = max(1, run.attempted)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": attempted if run.problems else 0,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items() if key in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
