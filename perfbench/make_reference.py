#!/usr/bin/env python3
"""Regenerate reference.json: the interp engine's output digests.

    python3 perfbench/make_reference.py [--out FILE]

Every operation any seed can produce (ops.universe()) is run once with
the repo's reference engine: command lines with `--engine interp`, and
ruusimd jobs through a daemon started with RUU_ENGINE=interp. The
digest of each output is stored under the operation's key; run.py
compares every timed operation against it.
"""

import argparse
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

sys.dont_write_bytecode = True

import build as buildmod  # noqa: E402
import ops  # noqa: E402
import procs  # noqa: E402

# Command lines run at once: storm cells take up to 1 GB each.
JOBS = 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(ops.REFERENCE))
    args = parser.parse_args(argv)
    build = buildmod.ensure()
    scratch = buildmod.ROOT / ".bench_out" / "reference"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    universe = ops.universe()
    commands = [op for op in universe if not op.is_job]
    jobs = [op for op in universe if op.is_job]

    def one(indexed):
        index, op = indexed
        work = scratch / ("cmd%d" % index)
        work.mkdir()
        proc = procs.run(op.argv(build.ruusim) + ["--engine", "interp"],
                         str(work))
        if proc.code != 0:
            raise RuntimeError("%s: exit %d: %s" % (op.ref_key, proc.code,
                                                    proc.err))
        return op.ref_key, ops.digest(proc.out)

    digests = {}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for key, value in pool.map(one, enumerate(commands)):
            digests[key] = value
            print("%-28s %s" % (key, value), flush=True)

    daemon = procs.Daemon(build.ruusim, str(scratch / "serve"),
                          env=dict(os.environ, RUU_ENGINE="interp"))
    try:
        for index, op in enumerate(jobs):
            ack = daemon.request(op.submit("ref%d" % index))
            result = daemon.request({"op": "run"})
            daemon.read()  # the batch summary
            if ack.get("ok") != 1 or result.get("status") != "done":
                raise RuntimeError("%s: %r %r" % (op.ref_key, ack, result))
            digests[op.ref_key] = ops.digest(result["payload"])
    finally:
        daemon.stop()
    print("%d job digests" % len(jobs))

    with open(args.out, "w") as out:
        json.dump({"format": 1, "engine": "interp",
                   "digests": dict(sorted(digests.items()))}, out, indent=0)
        out.write("\n")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
