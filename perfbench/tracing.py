"""The traced run: spans, re-enactment by the driver, per-layer metrics.

A traced run measures the workload twice — rounds with tracing off,
then the same rounds with a span around every operation — and then
re-enacts the first traced operations with perfbench_driver, which
records a span around each library call it makes. Every re-enacted
output must equal the operation's own output byte for byte. Spans are
kept in memory and written out when the run ends.
"""

import json
import os
import statistics
import time
from collections import defaultdict

import measure
import procs


class Spans:
    """In-memory span log: name, start, end, parent span and operation id."""

    def __init__(self):
        self.items = []
        self._open = {}
        self._next = 1

    def begin(self, name, parent=0, op=""):
        span_id = self._next
        self._next += 1
        self._open[span_id] = {"name": name, "id": span_id, "parent": parent,
                               "op": op, "start_ns": time.perf_counter_ns(),
                               "counts": {}}
        return span_id

    def end(self, span_id, **counts):
        span = self._open.pop(span_id)
        span["end_ns"] = time.perf_counter_ns()
        span["counts"].update(counts)
        self.items.append(span)

    def add(self, name, start_ns, end_ns, parent=0, op="", counts=None):
        span_id = self._next
        self._next += 1
        self.items.append({"name": name, "id": span_id, "parent": parent,
                           "op": op, "start_ns": start_ns, "end_ns": end_ns,
                           "counts": dict(counts or {})})
        return span_id

    def load_driver_log(self, path):
        """Adopt a driver's span log (lines of spans or of span arrays)."""
        with open(path) as log:
            for line in log:
                line = line.strip()
                if line.startswith("["):
                    self.items.extend(json.loads(line))
                elif line:
                    self.items.append(json.loads(line))

    def write(self, path):
        with open(path, "w") as out:
            for span in sorted(self.items, key=lambda s: s["start_ns"]):
                out.write(json.dumps(span) + "\n")


def self_times(spans):
    """{span id: self ns}: duration minus the time its children cover."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    result = {}
    for span in spans:
        lo, hi = span["start_ns"], span["end_ns"]
        covered, reach = 0, lo
        for start, end in sorted((max(c["start_ns"], lo), min(c["end_ns"], hi))
                                 for c in children[span["id"]]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = (hi - lo) - covered
    return result


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: (name, unit). Every workload prints all of them;
# a layer the workload does not reach reads 0. README.md names the call
# each wraps and the end-to-end metric it should move.
PER_LAYER = (
    ("kernels.build_ms", "ms"),
    ("arch.functional_ms", "ms"),
    ("arch.records", "count"),
    ("arch.minflt", "count"),
    ("engine.compile_ms", "ms"),
    ("engine.stream_lookups", "count"),
    ("engine.stream_hit_ratio", "ratio"),
    ("lint.resource_bound_ms", "ms"),
    ("lint.bound_hit_ratio", "ratio"),
    ("lint.wcirt_ms", "ms"),
    ("lint.wcirt_hit_ratio", "ratio"),
    ("core.run_ms", "ms"),
    ("core.sim_cycles", "count"),
    ("core.ns_per_cycle", "ns"),
    ("core.minflt", "count"),
    ("oracle.ms", "ms"),
    ("oracle.commits", "count"),
    ("sim.sweep_ms", "ms"),
    ("sim.baseline_ms", "ms"),
    ("sim.points_simulated", "count"),
    ("sim.points_derived", "count"),
    ("trap.run_ms", "ms"),
    ("trap.deliveries", "count"),
    ("trap.ms_per_delivery", "ms"),
    ("trap.streams_compiled", "count"),
    ("trap.minflt", "count"),
    ("trap.pruned_periods", "count"),
    ("trap.replay_ms", "ms"),
    ("inject.spawn_ms", "ms"),
    ("inject.sandbox_ms", "ms"),
    ("serve.cache_load_ms", "ms"),
    ("serve.cache_store_ms", "ms"),
    ("serve.ack_ms", "ms"),
    ("serve.result_wait_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.jobs_crashed", "count"),
    ("serve.jobs_timed_out", "count"),
    ("serve.shed", "count"),
    ("proc.self_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.reenacted_ops", "count"),
)


def per_layer(spans, untraced, traced, reenacted):
    """The PER_LAYER values from a traced run's spans and phases."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def self_ms(name):
        return [own[s["id"]] / 1e6 for s in by_name[name]]

    def counts(name, key):
        return [s["counts"].get(key, 0) for s in by_name[name]]

    # Memo counters are taken around each whole operation: by the driver's
    # "op" span, or inside the sandbox for a fresh ruusimd job.
    memo = by_name["op"] + by_name["serve.job"]

    def memo_sum(key):
        return sum(s["counts"].get(key, 0) for s in memo)

    # The commit oracle's cost: its run minus the plain run on the same
    # trace and configuration, paired within an operation.
    by_op = defaultdict(lambda: defaultdict(float))
    for span in by_name["oracle.run"] + by_name["core.run"]:
        by_op[span["op"]][span["name"]] += own[span["id"]] / 1e6
    oracle = [v["oracle.run"] - v["core.run"] for v in by_op.values()
              if "oracle.run" in v]

    core_ns = sum(own[s["id"]] for s in by_name["core.run"])
    trap_ms = sum(self_ms("trap.run"))

    def delta(key):
        return traced.status_delta.get(key, 0)

    untraced_wall = statistics.median(untraced.round_walls)
    traced_wall = statistics.median(traced.round_walls)
    # The two phases run one after the other; compare them at one host
    # speed.
    overhead = (statistics.median(measure.norm_walls(traced)) /
                statistics.median(measure.norm_walls(untraced)))
    values = {
        "kernels.build_ms": _mean(self_ms("kernels.build")),
        "arch.functional_ms": _mean(self_ms("arch.functional")),
        "arch.records": _mean(counts("arch.functional", "records")),
        "arch.minflt": _mean(counts("arch.functional", "minflt")),
        "engine.compile_ms": _mean(self_ms("engine.compile")),
        "engine.stream_lookups": _ratio(memo_sum("stream_lookups"),
                                        reenacted),
        "engine.stream_hit_ratio": _ratio(memo_sum("stream_hits"),
                                          memo_sum("stream_lookups")),
        "lint.resource_bound_ms": _mean(self_ms("lint.resource_bound")),
        "lint.bound_hit_ratio": _ratio(memo_sum("bound_hits"),
                                       memo_sum("bound_lookups")),
        "lint.wcirt_ms": _mean(self_ms("lint.wcirt")),
        "lint.wcirt_hit_ratio": _ratio(memo_sum("wcirt_hits"),
                                       memo_sum("wcirt_lookups")),
        "core.run_ms": _mean(self_ms("core.run")),
        "core.sim_cycles": _mean(counts("core.run", "cycles")),
        "core.ns_per_cycle": _ratio(core_ns,
                                    sum(counts("core.run", "cycles"))),
        "core.minflt": _mean(counts("core.run", "minflt")),
        "oracle.ms": _mean(oracle),
        "oracle.commits": _mean(counts("oracle.run", "commits")),
        "sim.sweep_ms": _mean(self_ms("sim.sweep")),
        "sim.baseline_ms": _mean(self_ms("sim.baseline")),
        "sim.points_simulated": _mean(counts("sim.sweep",
                                             "points_simulated")),
        "sim.points_derived": _mean(counts("sim.sweep", "points_derived")),
        "trap.run_ms": _mean(self_ms("trap.run")),
        "trap.deliveries": _mean(counts("trap.run", "deliveries")),
        "trap.ms_per_delivery": _ratio(trap_ms,
                                       sum(counts("trap.run", "deliveries"))),
        "trap.streams_compiled": _mean(counts("trap.run",
                                              "streams_compiled")),
        "trap.minflt": _mean(counts("trap.run", "minflt")),
        "trap.pruned_periods": _mean([s["counts"]["pruned_periods"]
                                      for s in by_name["op"]
                                      if "pruned_periods" in s["counts"]]),
        "trap.replay_ms": _mean(self_ms("trap.replay")),
        "inject.spawn_ms": _mean(self_ms("inject.spawn")),
        "inject.sandbox_ms": _mean(self_ms("inject.sandbox")),
        "serve.cache_load_ms": _mean(self_ms("serve.cache_load")),
        "serve.cache_store_ms": _mean(self_ms("serve.cache_store")),
        "serve.ack_ms": _mean(self_ms("serve.ack")),
        "serve.result_wait_ms": _mean(self_ms("serve.result_wait")),
        "serve.hit_ratio": _ratio(delta("cache_hits"),
                                  delta("cache_hits") + delta("cache_misses")),
        "serve.jobs_crashed": delta("jobs_crashed"),
        "serve.jobs_timed_out": delta("jobs_timed_out"),
        "serve.shed": delta("shed"),
        "proc.self_ms": _mean(self_ms("reenact")),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_pct": 100.0 * (overhead - 1.0),
        "trace.spans": len(spans),
        "trace.reenacted_ops": reenacted,
    }
    return values


class Reenactor:
    """Re-enacts recorded operations with perfbench_driver."""

    def __init__(self, build, scratch, spans):
        self.build = build
        self.scratch = scratch
        self.spans = spans
        self.processes = 0

    def _driver(self, args, parent, op_id, stdin=None):
        self.processes += 1
        log = os.path.join(self.scratch, "spans-%d.jsonl" % self.processes)
        argv = [str(self.build.driver), "--spans", log, "--op", op_id,
                "--parent", str(parent),
                "--id-base", str(self.processes * 10**9)] + args
        proc = procs.run(argv, self.scratch, stdin=stdin)
        if os.path.exists(log):
            self.spans.load_driver_log(log)
            os.unlink(log)
        return proc

    def command(self, record):
        """Re-enact one CLI operation; '' or why it did not match."""
        span = self.spans.begin("reenact", op=record.op_id)
        proc = self._driver(record.op.driver_argv(), span, record.op_id)
        self.spans.end(span)
        if proc.code != 0:
            return "driver exit %d: %s" % (proc.code, proc.err.strip()[-300:])
        if proc.out.decode(errors="replace") != record.out:
            return "driver output differs from `%s`" % " ".join(
                record.op.argv("ruusim")[1:])
        return ""

    def jobs(self, records):
        """Re-enact ruusimd jobs, in order, in one serve-mode driver."""
        if not records:
            return []
        cache = os.path.join(self.scratch, "reenact-cache")
        lines = "".join(r.op.job_line(r.op_id) for r in records)
        span = self.spans.begin("reenact.serve", op="serve")
        proc = self._driver(["serve", cache], span, "serve",
                            stdin=lines.encode())
        self.spans.end(span)
        outs = proc.out.decode(errors="replace").splitlines()
        whys = []
        for i, record in enumerate(records):
            if proc.code != 0:
                whys.append("driver exit %d: %s" % (proc.code,
                                                    proc.err.strip()[-300:]))
            elif i >= len(outs) or outs[i] != record.out:
                whys.append("driver payload differs from ruusimd's (%s)"
                            % record.op_id)
            else:
                whys.append("")
        return whys
