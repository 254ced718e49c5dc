#!/usr/bin/env python3
"""ruusim's benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload storm|tables|requests \\
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Builds ruusim and perfbench_driver from the surrounding tree (into
.bench_build/), generates the workload's operations from the seed, runs
them for about S seconds, checks every output against the interp
engine's reference digest, and prints a report. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0, or the per-layer metrics
of a traced run with --trace 1. Exit status: 0 when every output was
correct, 1 when some were not, 2 when the program could not be built
or measured (no result printed). README.md documents the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

import build as buildmod  # noqa: E402
import measure  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402

# Set-up samples in an untraced run, each with a calibration just
# before it; setup_s is their median at the reference speed.
SETUP_STARTS = 7
SEEDS = json.loads((Path(__file__).resolve().parent / "seeds.json")
                   .read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=SEEDS["default"])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one-cell storm rounds, two-sweep tables "
                             "rounds, five-request rounds (smoke tests)")
    parser.add_argument("--reference", default=str(ops.REFERENCE),
                        help="reference digests (default: reference.json)")
    parser.add_argument("--build-dir", default=str(buildmod.DEFAULT_BUILD_DIR))
    parser.add_argument("--out-dir", default=str(buildmod.ROOT /
                                                 ".bench_out"))
    return parser.parse_args(argv)


def untraced_run(args, build, refs, scratch):
    """One timed phase, with set-up samples spread over it."""
    tiny = args.size == "tiny"
    serve = args.workload == "requests"
    starts = 2 if tiny else SETUP_STARTS
    setup = []

    def sample_setup():
        cal = measure.calibrate()
        setup.append((measure.setup_sample(
            build, os.path.join(scratch, "setup%d" % len(setup)), serve),
            cal))

    # A sample is due after each 1/starts of the run, so that set-up is
    # measured over the same stretch of host load as the rounds.
    start = time.perf_counter()

    def between_rounds():
        due = starts * (time.perf_counter() - start) / args.seconds
        while len(setup) < min(due, starts):
            sample_setup()

    session = measure.Session(build, refs, scratch, prefix="a")
    phase = measure.timed_phase(session,
                                ops.Rounds(args.workload, args.seed, tiny),
                                args.seconds, serve, between_rounds)
    while len(setup) < starts:
        sample_setup()
    gated, extra = measure.end_to_end(phase, setup)
    metrics = {name: {"value": gated[name], "unit": unit}
               for name, unit in measure.GATED}
    report = [(name, gated[name], unit, "") for name, unit in measure.GATED]
    report += [(name, v[0], v[1], v[2] if len(v) > 2 else "")
               for name, v in extra.items()]
    return metrics, report, phase.records, None, [phase]


def reenact(reenactor, traced, budget, whole_rounds):
    """Re-enact traced operations for about @p budget seconds (at least
    one); ruusimd jobs go last, in order, through one serve-mode driver.
    """
    start = time.perf_counter()
    done, jobs = [], []
    for batch in traced.rounds:
        for record in batch:
            spent = time.perf_counter() - start
            if (done or jobs) and not whole_rounds and spent >= budget:
                break
            if not record.ok:
                continue
            if record.op.is_job:
                jobs.append(record)
            else:
                done.append((record, reenactor.command(record)))
        if time.perf_counter() - start >= budget:
            break
    return done + list(zip(jobs, reenactor.jobs(jobs)))


def traced_run(args, build, refs, scratch):
    """Untraced rounds, traced rounds, then re-enactment by the driver."""
    # Storm rounds shrink to their first cell, so that a traced run stays
    # within its time limit; the cell still covers every storm layer.
    tiny = args.size == "tiny" or args.workload == "storm"
    serve = args.workload == "requests"
    budget = args.seconds / 3.0
    untraced = measure.timed_phase(
        measure.Session(build, refs, scratch, prefix="a"),
        ops.Rounds(args.workload, args.seed, tiny), budget, serve)
    spans = tracing.Spans()
    traced = measure.timed_phase(
        measure.Session(build, refs, scratch, spans, prefix="b"),
        ops.Rounds(args.workload, args.seed, tiny), budget, serve)
    redone = reenact(tracing.Reenactor(build, scratch, spans), traced,
                     budget, whole_rounds=serve)
    values = tracing.per_layer(spans.items, untraced, traced, len(redone))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.PER_LAYER}
    report = [(name, values[name], unit, "")
              for name, unit in tracing.PER_LAYER]
    records = untraced.records + traced.records
    records += [measure.Record(op=r.op, op_id=r.op_id + ".driver",
                               ok=not why, why=why, latency=0.0, out="")
                for r, why in redone]
    return metrics, report, records, spans, [untraced, traced]


def main(argv=None):
    args = parse_args(argv)
    # A terminated run still stops and reaps the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        build = buildmod.ensure(args.build_dir)
    except (buildmod.BuildError, OSError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    # Every process the run starts shares one vCPU with the calibration
    # loop (measure.calibrate), so that the loop sees the host's speed
    # where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = Path(args.out_dir)
    scratch = out_dir / ("tmp-%d" % os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        refs = ops.load_reference(args.reference)
        host = buildmod.host_record(build)
        measure_run = traced_run if args.trace else untraced_run
        metrics, report, records, spans, phases = measure_run(
            args, build, refs, str(scratch))
    except Exception:  # noqa: BLE001 - any failure means no result
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [r for r in records if not r.ok]
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    print("perfbench %s seed %d %s: %d operations, %d failed" % (
        args.workload, args.seed, "traced" if args.trace else "untraced",
        len(records), len(failed)))
    print("host: %s" % json.dumps(host))
    for name, value, unit, note in report:
        print("  %-26s %16.6g %-6s %s" % (name, value, unit, note))
    for record in failed[:10]:
        print("FAILED %s %s: %s" % (record.op_id, record.op.ref_key,
                                    record.why))
    (out_dir / (stem + ".json")).write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size, "host": host,
        "report": [{"name": n, "value": v, "unit": u, "note": note}
                   for n, v, u, note in report],
        "failures": [{"op": r.op_id, "key": r.op.ref_key, "why": r.why}
                     for r in failed],
        "phases": [measure.phase_detail(phase) for phase in phases],
    }, indent=1) + "\n")
    if spans is not None:
        spans.write(out_dir / (stem + ".spans.jsonl"))
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
