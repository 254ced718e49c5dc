"""Child processes with their resource usage, and a ruusimd client."""

import json
import os
import shutil
import socket
import subprocess
import threading
import time
from dataclasses import dataclass

# Every command the benchmark starts is killed after this long, and a
# daemon that stays silent this long fails the run: a wedged program
# still lets a run end within its time limit. (Normal operations take
# under 15 s; ruusimd's own job deadline is 10 s.)
OP_TIMEOUT_S = 60.0


@dataclass
class Proc:
    """One finished child process."""
    out: bytes
    err: str
    code: int
    start: float
    end: float
    user: float
    sys: float
    maxrss_kb: int

    @property
    def wall(self):
        return self.end - self.start

    @property
    def cpu(self):
        return self.user + self.sys


def _feed(pipe, data):
    try:
        pipe.write(data)
    except BrokenPipeError:
        pass
    finally:
        try:
            pipe.close()
        except BrokenPipeError:
            pass


def run(argv, scratch, stdin=None):
    """Run @p argv to completion; stdout captured, stderr kept in scratch."""
    err_path = os.path.join(scratch, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL)
        killer = threading.Timer(OP_TIMEOUT_S, child.kill)
        killer.start()
        try:
            if stdin is not None:
                threading.Thread(target=_feed, args=(child.stdin, stdin),
                                 daemon=True).start()
            out = child.stdout.read()
            child.stdout.close()
            # wait4, not Popen.wait: the rusage is the point.
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as err:
        text = err.read()
    return Proc(out=out, err=text, code=child.returncode, start=start,
                end=end, user=usage.ru_utime, sys=usage.ru_stime,
                maxrss_kb=usage.ru_maxrss)


def proc_ticks(pid):
    """(user, sys) CPU seconds of @p pid and its reaped children."""
    with open("/proc/%d/stat" % pid) as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    hz = os.sysconf("SC_CLK_TCK")
    utime, stime, cutime, cstime = (int(f) for f in fields[11:15])
    return (utime + cutime) / hz, (stime + cstime) / hz


class Daemon:
    """`ruusim serve -j1` on an empty cache, and one connection to it."""

    def __init__(self, ruusim, workdir, env=None):
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        # A relative socket path keeps clear of the 108-byte sun_path limit.
        self.socket_path = os.path.relpath(os.path.join(workdir, "sock"))
        self.start = time.perf_counter()
        self._err = open(os.path.join(workdir, "stderr.txt"), "wb")
        self.child = subprocess.Popen(
            [str(ruusim), "serve", "--socket", self.socket_path, "--cache",
             os.path.relpath(os.path.join(workdir, "cache")), "-j1"],
            stdout=subprocess.DEVNULL, stderr=self._err,
            stdin=subprocess.DEVNULL, env=env)
        self.conn = None
        self.reader = None
        self.usage = None
        try:
            self.setup_s = self._connect()
        except BaseException:
            if self.child.poll() is None:
                self.child.kill()
                self.child.wait()
            self._err.close()
            raise

    def _connect(self):
        """Seconds from spawn to the first answered ping."""
        deadline = self.start + 30.0
        while True:
            if self.child.poll() is not None:
                raise RuntimeError("ruusim serve exited with %d before "
                                   "answering" % self.child.returncode)
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                conn.connect(self.socket_path)
                break
            except OSError:
                conn.close()
                if time.perf_counter() > deadline:
                    raise RuntimeError("ruusim serve never listened")
                time.sleep(0.0005)
        conn.settimeout(OP_TIMEOUT_S)
        self.conn = conn
        self.reader = conn.makefile("rb")
        answer = self.request({"op": "ping"})
        if answer.get("ok") != 1:
            raise RuntimeError("ping refused: %r" % answer)
        return time.perf_counter() - self.start

    def send(self, line):
        self.conn.sendall(line)

    def read(self):
        line = self.reader.readline()
        if not line:
            raise RuntimeError("ruusim serve closed the connection")
        return json.loads(line)

    def request(self, obj):
        self.send((json.dumps(obj) + "\n").encode())
        return self.read()

    def status(self):
        return self.request({"op": "status"})

    def stop(self):
        """Shut the daemon down and reap it; its rusage lands in .usage."""
        try:
            if self.conn is not None:
                self.conn.settimeout(5.0)
                self.request({"op": "shutdown"})
        except (OSError, RuntimeError, ValueError):
            self.child.kill()
        finally:
            if self.conn is not None:
                self.reader.close()
                self.conn.close()
                self.conn = None
        killer = threading.Timer(30.0, self.child.kill)
        killer.start()
        try:
            _, status, self.usage = os.wait4(self.child.pid, 0)
        finally:
            killer.cancel()
        self.child.returncode = os.waitstatus_to_exitcode(status)
        self._err.close()
        return self.child.returncode
