"""Timed phases of the three workloads and their end-to-end metrics."""

import json
import mmap
import os
import statistics
import time
from dataclasses import dataclass, field

import ops as opsmod
import procs

# (name, unit) of the end-to-end metrics BENCHMARK.json gates; every
# workload reports every one of them. setup_s and the norm_ metrics are
# host-speed normalised (see calibrate()).
GATED = (
    ("setup_s", "s"),
    ("norm_wall_s", "s"),
    ("norm_cpu_s", "s"),
    ("norm_sys_s", "s"),
    ("peak_rss_mb", "MB"),
    ("norm_sim_cycles_per_s", "1/s"),
)
# calibrate()'s work: loop iterations, the bytes it zero-fills (one
# ruusim memory image), its repeats (the fastest of each part counts),
# and the time it takes at the reference speed the norm_ metrics are
# scaled to. The reference only sets the scale: about its median on a
# 4-vCPU Xeon VM under Python 3.11.
CAL_ITERATIONS = 50_000
CAL_IMAGE_BYTES = 8 << 20
CAL_REPEATS = 2
CAL_REF_S = 0.0125
LATENCY_CLASSES = ("run", "miss", "hit", "periodic")
RUN_REQUEST = b'{"op": "run"}\n'


@dataclass
class Record:
    """The outcome of one operation."""
    op: opsmod.Op
    op_id: str
    ok: bool
    why: str
    latency: float
    out: str
    cycles: int = 0
    deliveries: int = 0
    cpu: float = 0.0
    sys: float = 0.0
    maxrss_kb: int = 0
    simulated: bool = True  # False for a result the daemon served cached


@dataclass
class Phase:
    """The operations of one timed phase, grouped into rounds."""
    rounds: list = field(default_factory=list)   # [[Record, ...], ...]
    round_walls: list = field(default_factory=list)
    round_cpu: list = field(default_factory=list)  # [(user, sys), ...]
    # The median of the calibrations taken before each of a round's
    # operations.
    round_cal: list = field(default_factory=list)
    daemon_rss_kb: int = 0
    # Growth of the daemons' `status` counters over the phase.
    status_delta: dict = field(default_factory=dict)

    @property
    def records(self):
        return [r for batch in self.rounds for r in batch]


class NoSpans:
    """The span recorder of an untraced phase: records nothing."""

    def begin(self, name, parent=0, op=""):
        return 0

    def end(self, span_id, **counts):
        pass

    def add(self, name, start_ns, end_ns, parent=0, op="", counts=None):
        return 0


class Session:
    """Executes operations against one build and checks every output."""

    def __init__(self, build, refs, scratch, spans=None, prefix="o"):
        self.build = build
        self.refs = refs
        self.scratch = scratch
        self.spans = spans or NoSpans()
        self.prefix = prefix
        self.count = 0
        self.daemon = None

    def check(self, op, out):
        want = self.refs.get(op.ref_key)
        if want is None:
            return "no reference digest for %s" % op.ref_key
        if opsmod.digest(out) != want:
            return "output differs from the reference (%s)" % op.ref_key
        return ""

    def execute(self, op):
        self.count += 1
        op_id = "%s%d" % (self.prefix, self.count)
        span = self.spans.begin("op." + op.kind, op=op_id)
        record = (self._job(op, op_id, span) if op.is_job else
                  self._command(op, op_id))
        self.spans.end(span)
        if record.ok and record.simulated:
            record.cycles, record.deliveries = opsmod.output_totals(
                record.out)
        return record

    def _command(self, op, op_id):
        proc = procs.run(op.argv(self.build.ruusim), self.scratch)
        out = proc.out.decode(errors="replace")
        why = ("exit %d: %s" % (proc.code, proc.err.strip()[-300:])
               if proc.code != 0 else self.check(op, proc.out))
        return Record(op=op, op_id=op_id, ok=not why, why=why,
                      latency=proc.wall, out=out, cpu=proc.cpu, sys=proc.sys,
                      maxrss_kb=proc.maxrss_kb)

    def _job(self, op, op_id, span):
        daemon = self.daemon
        request = (json.dumps(op.submit(op_id)) + "\n").encode()
        t0 = time.perf_counter_ns()
        daemon.send(request)
        ack = daemon.read()
        t1 = time.perf_counter_ns()
        self.spans.add("serve.ack", t0, t1, parent=span, op=op_id)
        if ack.get("ok") != 1:
            return Record(op=op, op_id=op_id, ok=False,
                          why="submit refused: %s" % ack.get("error", ack),
                          latency=(t1 - t0) / 1e9, out="")
        daemon.send(RUN_REQUEST)
        result = daemon.read()
        t2 = time.perf_counter_ns()
        daemon.read()  # the batch summary
        t3 = time.perf_counter_ns()
        self.spans.add("serve.result_wait", t1, t2, parent=span, op=op_id)
        payload = result.get("payload", "")
        if result.get("status") != "done":
            why = "job %s: %s" % (result.get("status"), payload[-300:])
        else:
            why = self.check(op, payload)
        return Record(op=op, op_id=op_id, ok=not why, why=why,
                      latency=(t3 - t0) / 1e9, out=payload,
                      simulated=not result.get("cached"))


def setup_sample(build, work, serve):
    """Seconds the workload's program takes to set up, in directory @p work.

    With @p serve (requests): `ruusim serve` on an empty cache, spawn to
    its first answered ping. Otherwise (storm, tables): one ruusim
    process start to exit of `ruusim trace lll01 FILE`, the cheapest
    command that builds all 14 suite workloads, as every storm and sweep
    process does before it simulates; it then writes one 339 KB trace.
    """
    if serve:
        daemon = procs.Daemon(build.ruusim, work)
        daemon.stop()
        return daemon.setup_s
    os.makedirs(work)
    proc = procs.run([str(build.ruusim), "trace", "lll01",
                      os.path.join(work, "lll01.trace")], work)
    if proc.code != 0:
        raise RuntimeError("ruusim trace exited %d: %s"
                           % (proc.code, proc.err.strip()[-300:]))
    return proc.wall


def calibrate():
    """Seconds a fixed mix of host work takes now: the host's speed.

    The host is a few vCPUs of a shared machine whose speed drifts by
    tens of percent over minutes, user and sys time alike. The mix has
    a user part, a pure-Python loop, and a sys part, zero-filling a
    fresh anonymous mapping one page fault at a time, as ruusim does
    with its memory images; each part's fastest repeat counts. A
    round's time divided by the calibrations taken during it, times
    CAL_REF_S, is the norm_ figure: what the round would take at the
    reference speed. The mix runs no ruusim code, so a change to the
    program leaves it alone.
    """
    ones = b"\1" * (CAL_IMAGE_BYTES // mmap.PAGESIZE)
    loop = touch = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        x = 0
        for i in range(CAL_ITERATIONS):
            x = (x * 31 + i) & 0xFFFFFF
        t1 = time.perf_counter()
        image = mmap.mmap(-1, CAL_IMAGE_BYTES)
        image[::mmap.PAGESIZE] = ones
        image.close()
        t2 = time.perf_counter()
        loop = min(loop, t1 - t0)
        touch = min(touch, t2 - t1)
    return loop + touch


def timed_phase(session, rounds, seconds, serve, between=None):
    """Run whole rounds, stopping at the round boundary nearest @p seconds.

    @p between, when given, is called after every round, untimed.
    calibrate() runs before every operation, untimed.

    With @p serve, a daemon on an empty cache answers the jobs over one
    connection, and a fresh one takes over, between rounds, whenever
    @p rounds starts over on an empty cache. Daemon CPU (and its
    sandboxes') is read from /proc at every round boundary.
    """
    phase = Phase()
    counted = {}  # the current daemon's status counters when it started

    def retire(count):
        """Stop the current daemon; with @p count, add its counters."""
        daemon, session.daemon = session.daemon, None
        try:
            if count:
                for key, value in daemon.status().items():
                    if isinstance(value, int):
                        phase.status_delta[key] = (
                            phase.status_delta.get(key, 0) + value -
                            counted.get(key, 0))
        finally:
            daemon.stop()
            if daemon.usage is not None:
                phase.daemon_rss_kb = max(phase.daemon_rss_kb,
                                          daemon.usage.ru_maxrss)

    def daemon_cpu():
        return (procs.proc_ticks(session.daemon.child.pid) if serve
                else (0.0, 0.0))

    try:
        start = time.perf_counter()
        while True:
            batch = rounds.next_round()
            if serve and (session.daemon is None or rounds.fresh_cache):
                if session.daemon is not None:
                    retire(count=True)
                session.daemon = procs.Daemon(
                    session.build.ruusim, os.path.join(
                        session.scratch, "serve-%s%d" % (session.prefix,
                                                         len(phase.rounds))))
                counted = session.daemon.status()
            cpu0 = daemon_cpu()
            records, cals, wall = [], [], 0.0
            for op in batch:
                cals.append(calibrate())
                t0 = time.perf_counter()
                records.append(session.execute(op))
                wall += time.perf_counter() - t0
            phase.round_walls.append(wall)
            phase.round_cal.append(statistics.median(cals))
            cpu1 = daemon_cpu()
            phase.rounds.append(records)
            phase.round_cpu.append(
                (sum(r.cpu - r.sys for r in records) + cpu1[0] - cpu0[0],
                 sum(r.sys for r in records) + cpu1[1] - cpu0[1]))
            if between:
                between()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(phase.rounds) / 2 >= seconds:
                break
        if serve:
            retire(count=True)
    finally:
        if session.daemon is not None:
            retire(count=False)
    return phase


def phase_detail(phase):
    """Every round and operation of @p phase, for the result file."""
    return [{"wall_s": wall, "cpu_s": user + sys_s, "sys_s": sys_s,
             "cal_s": cal,
             "ops": [{"op": r.op_id, "key": r.op.ref_key, "ok": r.ok,
                      "latency_s": r.latency, "cycles": r.cycles,
                      "deliveries": r.deliveries} for r in batch]}
            for batch, wall, (user, sys_s), cal in zip(
                phase.rounds, phase.round_walls, phase.round_cpu,
                phase.round_cal)]


def tail(samples):
    """(value, percentile, n): the highest percentile with >= 10 beyond it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def norm_walls(phase):
    """Each round's wall time at the calibration's reference speed."""
    return [wall * CAL_REF_S / cal
            for wall, cal in zip(phase.round_walls, phase.round_cal)]


def end_to_end(phase, setup):
    """(gated metrics, the rest of the report) of one timed phase.

    @p setup holds (set-up seconds, calibration) samples.
    """
    records = phase.records
    rounds = len(phase.round_walls)
    scale = [CAL_REF_S / cal for cal in phase.round_cal]
    wall = statistics.median(phase.round_walls)
    norm_wall = statistics.median(norm_walls(phase))

    def per_round(field):
        """A summed output field per round (averaged over rounds)."""
        return sum(getattr(r, field) for r in records) / rounds

    rss_kb = max([r.maxrss_kb for r in records] + [phase.daemon_rss_kb])
    gated = {
        "setup_s": statistics.median(t * CAL_REF_S / c for t, c in setup),
        "norm_wall_s": norm_wall,
        "norm_cpu_s": statistics.median(
            (u + s) * k for (u, s), k in zip(phase.round_cpu, scale)),
        "norm_sys_s": statistics.median(
            s * k for (_, s), k in zip(phase.round_cpu, scale)),
        "peak_rss_mb": rss_kb / 1024.0,
        "norm_sim_cycles_per_s": per_round("cycles") / norm_wall,
    }
    failed = sum(1 for r in records if not r.ok)
    extra = {
        "setup_raw_s": (statistics.median(t for t, _ in setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(u + s for u, s in phase.round_cpu), "s"),
        "sys_s": (statistics.median(s for _, s in phase.round_cpu), "s"),
        "sim_cycles_per_s": (per_round("cycles") / wall, "1/s"),
        "deliveries_per_s": (per_round("deliveries") / wall, "1/s"),
        "cal_ms": (1e3 * statistics.median(phase.round_cal), "ms"),
        "error_rate": (failed / len(records), "ratio"),
        "rounds": (rounds, "count"),
        "operations": (len(records), "count"),
    }
    for kind in LATENCY_CLASSES:
        samples = [r.latency * 1e3 for r in records
                   if r.ok and r.op.kind == kind]
        if not samples:
            continue
        extra[kind + "_p50_ms"] = (statistics.median(samples), "ms")
        high = tail(samples)
        if high:
            extra[kind + "_tail_ms"] = (
                high[0], "ms", "p%.1f of %d" % (high[1], high[2]))
    return gated, extra
