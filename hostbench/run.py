#!/usr/bin/env python3
"""Host-clock benchmark of the co-allocation simulator.

Run one workload from the repository root::

    python3 hostbench/run.py --workload duroc_burst --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program as users
run it; ``--trace 1`` is the separate traced run that reports the
per-layer metrics (probe counts, profiler self time by package,
overhead ratios).  Every run prints readable lines and then, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs every workload in its own
process, untraced and traced, prints every metric and writes the
combined report to ``.hostbench/report.json``.

Each workload runs whole *passes* over its seeded inputs until
``--seconds`` have passed (at least three); host times are medians over
passes, simulated metrics come from the first pass, and every later
pass must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("duroc_burst", "long_barrier", "monitored_campaigns")
MIN_PASSES = 3
#: Fresh processes whose set-up time is measured (median reported).
SETUP_SAMPLES = 5
REPORT = HERE.parent / ".hostbench" / "report.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up the first unit in a fresh process and print the
    # host clock at its first simulated event (see measure_setup).
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        sys.path.insert(0, str(SRC))
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        workload.prepare(workload.inputs(args.seed)[0], workload.mode)
        print(repr(time.perf_counter()))
        return 0
    # Build step: byte-compile the program so that set-up time measures
    # imports, not compilation on a fresh checkout.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("hostbench: byte-compiling the program failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    result, lines = (traced if args.trace else untraced)(workload, args)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_pass(workload, units, mode):
    """One pass over every unit; returns (host seconds, unit runs)."""
    gc.collect()
    started = time.perf_counter()
    runs = [workload.prepare(unit, mode)() for unit in units]
    return time.perf_counter() - started, runs


def measure_setup(workload, seed: int) -> float:
    """Median host seconds from process start to the first simulated event.

    Each sample is a fresh interpreter that imports the program,
    generates the inputs and builds the first unit; ``perf_counter`` is
    the system-wide monotonic clock, so the child's reading at the
    first event minus the parent's reading at spawn spans all of it.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload.name, "--seed", str(seed), "--setup-probe"]
        spawned = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - spawned)
    return statistics.median(samples)


def digest(runs) -> tuple:
    return tuple(run.digest() for run in runs)


def untraced(workload, args):
    from measure import is_failed, nearest_rank, tail_percentile
    from workloads import Mode

    setup_s = measure_setup(workload, args.seed)
    units = workload.inputs(args.seed)
    mode = workload.mode
    walls = []
    reference = None
    repeatable = True
    measuring = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - measuring < args.seconds:
        wall, runs = run_pass(workload, units, mode)
        walls.append(wall)
        if reference is None:
            reference = runs
        elif digest(runs) != digest(reference):
            repeatable = False

    records_equal = True
    if mode.observed:
        # Observation must not perturb the trials.
        bare = run_pass(workload, units, Mode())[1]
        records_equal = [r.records for r in bare] == [r.records for r in reference]

    coallocs = [c for run in reference for c in run.coallocs]
    attempted = len(coallocs)
    failed = sum(1 for c in coallocs if is_failed(c))
    checks_failed = sum(c.check_failures for c in coallocs)
    latencies = sorted(c.latency for c in coallocs if c.latency is not None)
    wasted = [run.wasted_node_s for run in reference]
    tail = tail_percentile(latencies)

    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_share": (1.0 - failed / attempted, "share"),
        "coalloc_sim_p50_s": (nearest_rank(latencies, 50.0) if latencies else 0.0, "sim_s"),
        "msgs_per_coalloc": (sum(run.messages for run in reference) / attempted, "msgs"),
    }
    lines = [
        f"workload {workload.name} seed {args.seed}: {len(walls)} passes, "
        f"{attempted} co-allocations attempted per pass",
        "  pass walls (s): " + " ".join(f"{wall:.3f}" for wall in walls),
    ]
    lines += [f"  {name:<20} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  {'failed_share':<20} {failed / attempted:.6g} share")
    if tail is None:
        lines.append(f"  {'coalloc_sim_tail_s':<20} n/a: {len(latencies)} committed "
                     "samples, fewer than 10 beyond any percentile")
    else:
        lines.append(f"  {'coalloc_sim_tail_s':<20} {tail[1]:.6g} sim_s "
                     f"(p{tail[0]:g} of {len(latencies)} committed samples)")
    if None in wasted:
        lines.append(f"  {'wasted_node_s':<20} n/a: run_trial does not expose its grid")
    else:
        lines.append(f"  {'wasted_node_s':<20} {sum(wasted):.6g} node_s")
    lines.append(
        f"  checks: repeatable={repeatable} observed_equals_bare={records_equal} "
        f"size_check_failures={checks_failed} "
        f"released_after_gram_end={sum(c.ended_released for c in coallocs)}"
    )
    result = {
        "correct": repeatable and records_equal and checks_failed == 0 and bool(latencies),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def profile_pass(workload, units, mode) -> dict:
    """One pass under cProfile; returns the pstats table."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    gc.collect()
    profiler.enable()
    for unit in units:
        workload.prepare(unit, mode)()
    profiler.disable()
    return pstats.Stats(profiler).stats


def traced(workload, args):
    from dataclasses import replace

    from measure import call_count, fold_self_time, is_failed
    from repro.core.barrier import CHECKIN
    from workloads import Mode

    units = workload.inputs(args.seed)
    mode = workload.mode
    campaigns = mode.observed
    # The variant a default pass is compared with: the program's tracer
    # off or, for the campaigns (run_trial always traces), the bare
    # trials without monitors and black box.
    variant = Mode() if campaigns else replace(mode, trace=False)

    first_s, reference = run_pass(workload, units, mode)
    variant_s = run_pass(workload, units, variant)[0]
    default_s = statistics.mean([first_s, run_pass(workload, units, mode)[0]])
    counted_s, counted = run_pass(workload, units, replace(mode, count=True))
    stats = profile_pass(workload, units, mode)

    counts = counted[0].counts
    layer: dict[str, float] = dict(counted[0].layer)
    for run in counted[1:]:
        counts.add(run.counts)
        for key, value in run.layer.items():
            layer[key] = layer.get(key, 0.0) + value
    selfs = fold_self_time((key[0], value[2]) for key, value in stats.items())
    flightrec_s = sum(value[2] for key, value in stats.items()
                      if key[0].replace("\\", "/").endswith("repro/obs/flightrec.py"))
    checkin_sends = counts.sends_by_kind[CHECKIN]

    def self_s(package: str) -> float:
        return selfs.get(package, 0.0)

    metrics = {
        "simcore.steps": (counts.steps, "count"),
        "simcore.self_s": (self_s("simcore"), "s"),
        "simcore.us_per_step": (1e6 * self_s("simcore") / max(counts.steps, 1), "us"),
        "simcore.queue_high_water": (counts.queue_high_water, "count"),
        "net.sends": (counts.sends, "count"),
        "net.drops": (counts.drops, "count"),
        "net.self_s": (self_s("net"), "s"),
        "net.us_per_send": (1e6 * self_s("net") / max(counts.sends, 1), "us"),
        "net.checkin_sends": (checkin_sends, "count"),
        "core.checkins_recorded": (counts.checkins_received, "count"),
        "core.checkin_useful_ratio": (
            counts.checkins_received / checkin_sends if checkin_sends else 0.0, "ratio"),
        "core.commits": (counts.events["duroc.commit"], "count"),
        "core.aborts": (counts.events["duroc.abort.decision"], "count"),
        "core.barrier_abandoned": (counts.events["barrier.abandoned"], "count"),
        "core.self_s": (self_s("core"), "s"),
        "broker.attempts": (layer.get("broker.attempts", 0.0), "count"),
        "broker.substitutions": (layer.get("broker.substitutions", 0.0), "count"),
        "gram.submits": (counts.sends_by_kind["gram.submit"], "count"),
        "gram.status_polls": (counts.sends_by_kind["gram.status"], "count"),
        "gram.self_s": (self_s("gram"), "s"),
        "gsi.handshakes": (counts.sends_by_kind["gsi.hello"], "count"),
        "gsi.self_s": (self_s("gsi"), "s"),
        "rsl.parses": (call_count(stats, "repro/rsl/parser.py",
                                  ("parse", "parse_multirequest")), "count"),
        "rsl.self_s": (self_s("rsl"), "s"),
        "obs.spans": (call_count(stats, "repro/simcore/tracing.py", ("span", "record")),
                      "count"),
        "obs.self_s": (self_s("obs") - flightrec_s, "s"),
        # The ratios that do not apply to a workload read 0: the campaigns
        # have no tracer-off variant, and only the campaigns run observed.
        "obs.trace_overhead_ratio": (0.0 if campaigns else default_s / variant_s, "ratio"),
        "verify.events_recorded": (sum(r.events_recorded for r in reference), "count"),
        "verify.self_s": (self_s("verify"), "s"),
        "verify.evaluate_s": (sum(r.evaluate_s for r in reference), "s"),
        "obs.flightrec_self_s": (flightrec_s, "s"),
        "verify.observer_overhead_ratio": (default_s / variant_s if campaigns else 0.0, "ratio"),
        "resilience.retries": (layer.get("resilience.retries", 0.0), "count"),
        "resilience.breaker_trips": (layer.get("resilience.breaker_trips", 0.0), "count"),
        "faults.applied": (counts.events["fault.apply"], "count"),
        "bench.trace_overhead_s": (counted_s - default_s, "s"),
    }
    total_self = sum(selfs.values())
    lines = [
        f"workload {workload.name} seed {args.seed} (traced): default pass "
        f"{default_s:.3f} s, counted pass {counted_s:.3f} s",
        "  self time by package (cProfile): " + ", ".join(
            f"{name} {100 * value / total_self:.1f}%"
            for name, value in sorted(selfs.items(), key=lambda kv: -kv[1])
        ),
    ]
    lines += [f"  {name:<32} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    coallocs = [c for run in reference for c in run.coallocs]
    result = {
        "correct": digest(counted) == digest(reference),
        "attempted": len(coallocs),
        "failed": sum(1 for c in coallocs if is_failed(c)),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


# ---------------------------------------------------------------------------
# Every workload, each in its own process
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    report = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            *readable, last = done.stdout.splitlines() or [""]
            print("\n".join(readable))
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                status = 1
                continue
            report[f"{name}/trace{trace}"] = json.loads(last)
    REPORT.parent.mkdir(exist_ok=True)
    REPORT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {REPORT.relative_to(HERE.parent)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
