"""The operations the workloads are made of, and their reference digests.

An operation is one command line (`ruusim storm`, `ruusim sweep`,
`ruusim run`) or one ruusimd job. Every operation a seed can produce is
enumerated by universe(), and reference.json holds the digest of each
one's output as produced once by the interp engine (make_reference.py).
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

KERNELS = tuple("lll%02d" % i for i in range(1, 15))
CORES = ("simple", "tomasulo", "rstu", "ruu", "spec_ruu", "history")
# The period of a periodic job: the largest of `ruusim storm`'s default
# periods (16, 64, 256, 1024). A job at 1024 costs about as much as a
# miss; one at 16 costs 4-7 s, which would make requests a storm.
PERIOD = 1024
# A requests round: this many requests of each kind, in seeded order.
REQUESTS_PER_KIND = 4
# Storm cells cost 4-13 s each. A storm round runs these three kernels
# (4-8 s a cell on any core) once each, on three distinct cores the seed
# picks, so a seed's choice barely moves a round's work.
STORM_KERNELS = ("lll02", "lll07", "lll08")

WORKLOADS = ("storm", "tables", "requests")


@dataclass(frozen=True)
class Op:
    """One operation. kind: storm, sweep, run, miss, hit or periodic."""
    kind: str
    kernel: str = ""
    core: str = ""
    period: int = 0

    @property
    def is_job(self):
        return self.kind in ("miss", "hit", "periodic")

    @property
    def ref_key(self):
        if self.kind == "storm":
            return "storm:%s:%s" % (self.kernel, self.core)
        if self.kind == "sweep":
            return "sweep:%s" % self.core
        if self.kind == "run":
            return "run:%s:%s" % (self.kernel, self.core)
        return "job:%s:%s:%d" % (self.kernel, self.core, self.period)

    def argv(self, ruusim):
        if self.kind == "storm":
            return [str(ruusim), "storm", self.kernel, "--core", self.core,
                    "-j1", "--json"]
        if self.kind == "sweep":
            return [str(ruusim), "sweep", "suite", "--core", self.core, "-j1",
                    "--json"]
        return [str(ruusim), "run", self.kernel, "--core", self.core,
                "--json"]

    def driver_argv(self):
        if self.kind == "sweep":
            return ["sweep", self.core]
        return [self.kind, self.kernel, self.core]

    def submit(self, job_id):
        """The ruusimd submit request of a job."""
        request = {"op": "submit", "id": job_id, "workload": self.kernel,
                   "core": self.core}
        if self.period:
            request["period"] = self.period
        return request

    def job_line(self, job_id):
        """The driver's serve-mode line for a job."""
        return "%s %s %s %d\n" % (job_id, self.kernel, self.core,
                                  self.period)


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def universe():
    """Every operation any seed can produce, one per reference key."""
    ops = [Op("storm", k, c) for k in STORM_KERNELS for c in CORES]
    ops += [Op("sweep", core=c) for c in CORES]
    ops += [Op("run", k, c) for k in KERNELS for c in CORES]
    ops += [Op("miss", k, c) for k in KERNELS for c in CORES]
    ops += [Op("periodic", k, c, period=PERIOD) for k in KERNELS
            for c in CORES]
    return ops


def load_reference(path=REFERENCE):
    with open(path) as ref:
        return json.load(ref)["digests"]


def output_totals(text):
    """(cycles, deliveries) the program simulated to produce an output.

    What it derived instead adds nothing: a storm row marked "pruned",
    and the derived share of a sweep point. A point reports the suite's
    total cycles and how many of the suite's workloads it simulated, so
    its cycles count pro rata to that number. A sweep also simulates the
    simple-issue baseline before its points; the first point's speedup
    (baseline cycles / point cycles) gives its cycles.
    """
    cycles = deliveries = 0
    baseline = None
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if record.get("pruned"):
            continue
        share = record.get("simulated", len(KERNELS)) / len(KERNELS)
        cycles += record.get("cycles", 0) * share
        deliveries += record.get("deliveries", 0)
        if baseline is None and "speedup" in record:
            baseline = round(record["speedup"] * record["cycles"])
            cycles += baseline
    return cycles, deliveries


class Rounds:
    """The seeded stream of one workload's operations, a round at a time.

    A round is the unit whose wall time the benchmark reports: all
    storm cells of the seed, the six sweeps, or a fixed mix of requests.
    Two streams made from the same seed yield the same operations.
    """

    def __init__(self, workload, seed, tiny=False):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.tiny = tiny
        self.rng = random.Random("%s:%d" % (workload, seed))
        if workload == "storm":
            cores = self.rng.sample(CORES, len(STORM_KERNELS))
            cells = [Op("storm", k, c) for k, c in zip(STORM_KERNELS, cores)]
            self.rng.shuffle(cells)
            self.storm_cells = cells[:1] if tiny else cells
        elif workload == "requests":
            self.misses, self.periodics, self.jobs_seen = [], [], []
        # Whether the last round must start on a fresh daemon and cache.
        self.fresh_cache = False

    def next_round(self):
        if self.workload == "storm":
            return list(self.storm_cells)
        if self.workload == "tables":
            cores = self.rng.sample(CORES, len(CORES))
            return [Op("sweep", core=c) for c in cores[:2 if self.tiny else 6]]
        return self._requests_round()

    def _requests_round(self):
        per_kind = 1 if self.tiny else REQUESTS_PER_KIND
        # A key is first-seen once per cache. When a pool could run out
        # within this round (its leading hits may turn into misses), the
        # pools are refilled and the round starts on an empty cache, so
        # the mix holds however many rounds a run takes.
        self.fresh_cache = (len(self.misses) < 2 * per_kind or
                            len(self.periodics) < per_kind)
        if self.fresh_cache:
            self.misses = [Op("miss", k, c) for k in KERNELS for c in CORES]
            self.periodics = [Op("periodic", k, c, period=PERIOD)
                              for k in KERNELS for c in CORES]
            self.rng.shuffle(self.misses)
            self.rng.shuffle(self.periodics)
            self.jobs_seen = []
        mix = ["run", "miss", "periodic", "hit"] * per_kind
        self.rng.shuffle(mix)
        ops = []
        for kind in mix:
            if kind == "run":
                ops.append(Op("run", self.rng.choice(KERNELS),
                              self.rng.choice(CORES)))
                continue
            # A repeat needs an earlier job; until there is one, a hit
            # is a miss.
            if kind == "hit" and not self.jobs_seen:
                kind = "miss"
            if kind == "hit":
                op = self.rng.choice(self.jobs_seen)
                ops.append(Op("hit", op.kernel, op.core, period=op.period))
            else:
                op = (self.misses if kind == "miss" else self.periodics).pop()
                self.jobs_seen.append(op)
                ops.append(op)
        return ops
