"""advforge benchmark: one workload per run, driven through ``forge``.

    python3 perfbench/run.py --workload campaign|grid|dataset \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Inputs are generated from ``--seed``.  After set-up (repeated at least
SETUP_REPEATS times and until SETUP_SECONDS or SETUP_MAX set-ups, median
reported) and an untimed warm-up, the timed pass runs the workload's
units of work for about ``--seconds`` (see ``timed_pass``; a ``grid``
unit is one whole small grid).  Set-up and unit times are corrected for
the machine's speed (``probe.Clock``).  Every output is then checked.
The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics for ``--trace 0`` and the
per-layer metrics for ``--trace 1``.  A traced run times the same units
once untraced and once traced, and reports the difference as
``trace.overhead_share``.  Each workload module provides
``setup(work, seed) -> ctx``, ``warm_up(ctx, out, forge)``,
``unit(ctx, index, out, forge)``, ``teardown(ctx)`` and
``check(ctx, outs) -> Outcome``.  A failed check prints the problems, a
result without numbers, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import common
import layers
import probe
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX = 10
MIN_UNITS = 3
WORKLOADS = ("campaign", "grid", "dataset")
RATE_NAMES = {"campaign": "steps_per_s", "grid": "cells_per_s",
              "dataset": "sources_per_s"}
PREDICTED = {"campaign": "gbdt.TrainedModel.predict_proba",
             "grid": "gbdt.train",
             "dataset": "scoring.QuotaState.save + harness reap lag"}


def _import_program():
    if not (SRC / "advforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no advforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import advforge

    if Path(advforge.__file__).resolve().parent != SRC / "advforge":
        sys.exit(f"perfbench: imported advforge from {advforge.__file__}")


def timed_pass(module, ctx, out: Path, forge, seconds: float,
               units: int | None = None) -> tuple:
    """Time units of work until ``seconds`` of wall time have passed (at
    least MIN_UNITS units), or ``units`` of them to replay an earlier
    pass.  ``campaign`` unit ``i`` mutates the ``i``-th batch of files,
    so a pass covers as many inputs as fit.  Times are corrected for the
    machine's speed (``probe.Clock``).  Returns (per-unit corrected
    seconds, output directories, the clock).
    """
    clock = probe.Clock(module.PROBE)
    times, outs = [], []
    while (len(times) < units if units is not None else
           len(times) < MIN_UNITS or clock.wall < seconds):
        target = out / f"unit{len(times):03d}"
        outs.append(target)
        times.append(clock.time(module.unit, ctx, len(times), target,
                                forge)[1])
    return times, outs, clock


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    module = __import__(name)
    work = WORK / f"{name}-{seed}-{'trace' if traced else 'e2e'}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    facts = common.machine_facts()
    print("machine: " + json.dumps(facts), flush=True)

    tracer = spans.Tracer() if traced else None
    setup_clock = probe.Clock(module.PROBE)
    setup_times = []
    ctx = target = None
    # a traced run sets up once, under the tracer; an untraced one keeps
    # the last of at least SETUP_REPEATS set-ups lasting SETUP_SECONDS
    # (at most SETUP_MAX)
    while not setup_times or not traced and (
            len(setup_times) < SETUP_REPEATS
            or sum(setup_times) < SETUP_SECONDS
            and len(setup_times) < SETUP_MAX):
        if ctx is not None:
            module.teardown(ctx)
            shutil.rmtree(target)
        target = work / f"setup_{len(setup_times)}"
        target.mkdir()
        if traced:
            with tracer.phase("setup"), tracer.install():
                ctx, taken = setup_clock.time(module.setup, target, seed)
        else:
            ctx, taken = setup_clock.time(module.setup, target, seed)
        setup_times.append(taken)

    try:
        plain = common.Forge()
        module.warm_up(ctx, work / "warm", plain)
        unit_s, outs, clock = timed_pass(module, ctx, work / "pass",
                                         plain, seconds)
        if traced:
            with tracer.phase("pass"), tracer.install():
                traced_unit_s, traced_outs, traced_clock = timed_pass(
                    module, ctx, work / "traced", common.Forge(tracer),
                    seconds, len(unit_s))
    finally:
        module.teardown(ctx)

    outcome = module.check(ctx, outs)
    if traced:
        traced_outcome = module.check(ctx, traced_outs)
        outcome.merge(traced_outcome)
    result = {"correct": not outcome.problems, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": {}}
    for problem in outcome.problems:
        print(f"check failed: {problem}", flush=True)
    if outcome.problems:
        return result

    if traced:
        metrics = layers.metrics(tracer, traced_outcome, traced_clock.wall,
                                 sum(traced_unit_s) / sum(unit_s) - 1.0)
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{name}-{seed}.json", {
            "workload": name, "seed": seed, "machine": facts,
            "units": len(unit_s), "untraced_unit_s": unit_s,
            "traced_unit_s": traced_unit_s, "probe_s": clock.probes,
            "traced_probe_s": traced_clock.probes})
        summary = spans.Summary(tracer.spans, {"pass"})
        share = {layer: metrics[f"layer.{layer}.self_share"][0]
                 for layer in spans.LAYERS}
        top = max(share, key=share.get)
        print(f"dominant layer on {name}: {top} ({share[top]:.0%} of the "
              f"traced pass); predicted: {PREDICTED[name]}", flush=True)
        print("top spans by self time: " + ", ".join(
            f"{n} {s:.3f}s" for n, s in summary.top_self(5)), flush=True)
    else:
        rate = outcome.work / sum(unit_s)
        print(f"{RATE_NAMES[name]} = {rate} ({len(unit_s)} units; "
              f"{outcome.work / clock.wall} per wall second; probe "
              f"median {statistics.median(clock.probes):.4f} s against "
              f"{clock.nominal} s)", flush=True)
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (common.peak_rss_mb(), "MB"),
                   "work_per_s": (rate, "1/s")}
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    shutil.rmtree(work)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
