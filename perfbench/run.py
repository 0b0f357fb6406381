#!/usr/bin/env python3
"""Benchmark of the rulecover library: two closed-loop workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Workloads: verify, search-reproduce; one per process.  No threads.  Every
timed call into the library runs next to its twin, the same call on the
same inputs into the frozen copy of the library in perfbench/baseline/, so
both see the same host speed.  Each run:

1. one warm-up cycle of the library alone, which gives peak_rss_mb; then
   the baseline copy is loaded and cycles run until about --seconds have
   passed since the start (a cycle is not started if it would end more
   than half a cycle past them), at least MIN_CYCLES.  A cycle is
   SETUPS_PER_CYCLE pairs of set-ups (import a library afresh and build the
   workload's inputs the way `cover verify` does), a main phase and a side
   phase, each a fixed list of calls with the same inputs every cycle;
2. setup_s, main_op_s and side_op_s are the library's time relative to
   the baseline's (median set-up over median set-up; summed phase time
   over the baseline's summed phase time), times the baseline's time
   pinned in workloads.BASELINE_SECONDS: the library's time at the speed
   of the machine that pinned it;
3. every output of the library is checked (see workloads.py); a call that
   raises or fails its check counts in `failed`, and makes the exit
   status 1.  The baseline's outputs are not checked;
4. with --trace 1, one more set-up and cycle of the library alone with the
   layer wrappers of tracer.py installed; it reports the per-layer
   metrics, and the tracing overhead as that cycle's main plus side phase
   time minus the median untraced one.  Spans are written to
   perfbench/out/ at the end.

Human-readable lines come first; the last line of standard output is one
JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
MIN_CYCLES = 2
SETUPS_PER_CYCLE = 5


def timed(call):
    """(seconds, output) of one call; the output is the exception it raised,
    if it raised one."""
    t = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failed call is data, the loop goes on
        out = exc
    return time.perf_counter() - t, out


class Run:
    """Measured and checked state of one workload run."""

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        # the same workload on the frozen baseline copy of the library
        self.baseline = type(workload)(workload.seed, workload.scale, workload.reference)
        self.attempted = 0
        self.failures = []
        self.setups = []        # (library seconds, baseline seconds) per set-up
        self.cycles = []        # (main, side) library seconds per cycle
        self.twin_cycles = []   # (main, side) baseline seconds per cycle
        self.op_times = {}      # op label -> library seconds of each call
        self.last_outputs = {}  # op label -> output of its latest call
        self.peak_rss_mb = 0.0

    def phase(self, ops, twins=None, tracer=None, name=""):
        """Run the ops back to back, each next to its twin if twins are
        given; returns (seconds, twin seconds, outputs)."""
        outputs = []
        seconds = twin_seconds = 0.0
        gc.collect()  # garbage from earlier phases is not this phase's cost
        with tracer.span(name) if tracer else nullcontext():
            for i, op in enumerate(ops):
                # the twin runs just before or just after, in turn
                twin_first = twins is not None and (len(self.cycles) + i) % 2 == 0
                if twin_first:
                    twin_took = timed(twins[i].call)[0]
                took, out = timed(op.call)
                if twins is not None:
                    if not twin_first:
                        twin_took = timed(twins[i].call)[0]
                    twin_seconds += twin_took
                seconds += took
                outputs.append(out)
                if tracer is None:
                    self.op_times.setdefault(op.label, []).append(took)
        return seconds, twin_seconds, outputs

    def check(self, ops, outputs):
        for op, out in zip(ops, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                msg = f"raised {type(out).__name__}: {out}"
            else:
                msg = self.workload.verify_output(op, out)
            if msg is not None:
                self.failures.append(f"{op.label}: {msg}")
            self.last_outputs[op.label] = out

    def cycle(self, tracer=None, paired=True):
        """One main and one side phase, with their twins if paired; the
        outputs are checked after both.  Returns the two phase results."""
        w, b = self.workload, self.baseline
        main_ops, side_ops = w.main_ops(), w.side_ops()
        main = self.phase(main_ops, b.main_ops() if paired else None,
                          tracer, "bench.main")
        side = self.phase(side_ops, b.side_ops() if paired else None,
                          tracer, "bench.side")
        self.check(main_ops, main[2])
        self.check(side_ops, side[2])
        return main, side

    def setup_pair(self, index: int):
        """Set up the library and the baseline afresh, in turn first."""
        pair = [(self.workload, wl.SRC), (self.baseline, wl.BASELINE)]
        seconds = {}
        for w, root in pair if index % 2 == 0 else pair[::-1]:
            w.release()
            gc.collect()  # freeing the last set-up is not this one's cost
            t = time.perf_counter()
            w.setup(wl.load_program(root))
            seconds[root] = time.perf_counter() - t
        self.setups.append((seconds[wl.SRC], seconds[wl.BASELINE]))

    def measure(self, seconds: float, min_cycles: int):
        start = time.perf_counter()
        self.workload.setup(wl.load_program())
        self.cycle(paired=False)  # warm-up, with the library alone
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        last = 0.0  # seconds the latest cycle took, set-ups included
        while (len(self.cycles) < min_cycles
               or time.perf_counter() - start + last / 2 < seconds):
            begun = time.perf_counter()
            for k in range(SETUPS_PER_CYCLE):
                self.setup_pair(len(self.setups) + k)
            main, side = self.cycle()
            self.cycles.append((main[0], side[0]))
            self.twin_cycles.append((main[1], side[1]))
            last = time.perf_counter() - begun

    def relative(self) -> dict:
        """Library time over baseline time: set-up, main and side phase."""
        lib, base = zip(*self.setups)
        out = {"setup": statistics.median(lib) / statistics.median(base)}
        for i, phase in enumerate(("main", "side")):
            out[phase] = (sum(c[i] for c in self.cycles)
                          / sum(c[i] for c in self.twin_cycles))
        return out


def run_workload(workload: wl.Workload, seconds: float, trace: bool,
                 min_cycles: int = MIN_CYCLES):
    """Measure and check one workload; returns (Run, metrics, table)."""
    run = Run(workload)
    run.measure(seconds, min_cycles)
    pinned = wl.BASELINE_SECONDS[workload.name]
    rel = run.relative()
    table = {"setup_s": (rel["setup"] * pinned["setup"], "s"),
             "main_op_s": (rel["main"] * pinned["main"], "s"),
             "side_op_s": (rel["side"] * pinned["side"], "s")}
    for name, value in rel.items():
        table[f"{name}.vs_baseline"] = (value, "ratio")
    table["setup.median_s"] = (statistics.median(s for s, _ in run.setups), "s")
    for i, phase in enumerate(("main", "side")):
        table[f"{phase}.median_s"] = (statistics.median(c[i] for c in run.cycles), "s")
        table[f"{phase}.baseline_median_s"] = (
            statistics.median(c[i] for c in run.twin_cycles), "s")
    medians = {label: statistics.median(t) for label, t in run.op_times.items()}
    table.update(workload.derived(medians, run.last_outputs))
    if not trace:
        table["peak_rss_mb"] = (run.peak_rss_mb, "MB")
        metrics = {k: table[k][0] for k in
                   ("setup_s", "main_op_s", "side_op_s", "peak_rss_mb")}
        return run, metrics, table

    # a fresh set-up, so the traced cycle does the work of a measured one
    # (e.g. local_search's per-import smooth-cut cache starts empty)
    untraced = statistics.median(m + s for (m, s) in run.cycles)
    workload.release()
    run.baseline.release()
    gc.collect()
    lib = wl.load_program()
    tracer = Tracer()
    with tracer.installed(lib):
        with tracer.span("bench.setup"):
            workload.setup(lib)
        main, side = run.cycle(tracer, paired=False)
    traced = main[0] + side[0]
    metrics = tracer.layer_metrics()
    metrics.update({"trace.overhead_s": traced - untraced,
                    "trace.untraced_cycle_s": untraced,
                    "trace.traced_cycle_s": traced})
    tracer.write(OUT / f"trace-{workload.name}-seed{workload.seed}.json.gz",
                 {"workload": workload.name, "seed": workload.seed,
                  "scale": workload.scale, "metrics": metrics})
    return run, metrics, table


def fingerprint() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"machine={platform.machine()}")


def print_table(run: Run, table: dict, seed: int):
    w = run.workload
    print(f"== {w.name}  seed {seed} (input variant {w.variant}, scale {w.scale})"
          f"  cycles {len(run.cycles)}")
    print(f"   main phase: {w.main_name}; side phase: {w.side_name}")
    for name, (value, unit) in table.items():
        print(f"   {name:30s} {value:.6g} {unit}")
    ratio = len(run.failures) / run.attempted
    print(f"   {'failed_ops_ratio':30s} {ratio:.6g} ({len(run.failures)}/{run.attempted})")
    for msg in run.failures[:20]:
        print(f"   FAILED {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = wl.load_json(BENCHMARK)
        reference = wl.load_json(wl.REFERENCE)
        wl.load_program()  # fails early without src/; later set-ups find stdlib warm
        wl.load_program(wl.BASELINE)
    except (OSError, ImportError, ValueError) as exc:
        print(f"error: cannot load the benchmark or the library: {exc}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    print(f"# rulecover benchmark  {fingerprint()}")
    workload = wl.WORKLOADS[args.workload](args.seed, "full", reference)
    run, metrics, table = run_workload(workload, args.seconds, bool(args.trace))
    print_table(run, table, args.seed)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match {BENCHMARK.name}", file=sys.stderr)
        return 2
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
