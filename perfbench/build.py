"""Build ruusim and the per-layer driver from source, and describe the host.

The benchmark never measures a binary it did not build from the tree it
sits in: it configures the CMake package in this directory (the ruusim
tree one level up, plus driver.cc) into its own build directory, and
refuses a Debug or sanitizer configuration.
"""

import hashlib
import os
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_BUILD_DIR = ROOT / ".bench_build"
TARGETS = ["ruusim_cli", "perfbench_driver"]


class BuildError(Exception):
    """The program could not be built, or not in a measurable form."""


@dataclass
class Build:
    dir: Path
    ruusim: Path
    driver: Path
    cache: dict


def read_cmake_cache(path):
    """CMakeCache.txt as a {name: value} dict (types dropped)."""
    entries = {}
    for line in Path(path).read_text(errors="replace").splitlines():
        match = re.match(r"^([A-Za-z_][A-Za-z0-9_.-]*):[A-Z_]+=(.*)$", line)
        if match:
            entries[match.group(1)] = match.group(2)
    return entries


def refusal(cache):
    """Why a configuration must not be measured, or None when it may."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type in ("", "Debug"):
        return "CMAKE_BUILD_TYPE is %r, not an optimised build" % build_type
    sanitize = cache.get("RUU_SANITIZE", "OFF")
    if sanitize.upper() not in ("OFF", "0", "FALSE", "NO", ""):
        return "RUU_SANITIZE=%s is a sanitizer build" % sanitize
    flags = " ".join([cache.get("CMAKE_CXX_FLAGS", ""),
                      cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")])
    if "-fsanitize" in flags:
        return "CMAKE_CXX_FLAGS carry -fsanitize"
    if re.search(r"(^|\s)-O0(\s|$)", flags):
        return "CMAKE_CXX_FLAGS carry -O0"
    return None


def _run(argv, log):
    with open(log, "ab") as out:
        done = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL)
    if done.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-15:]
        raise BuildError("%s failed:\n%s" % (" ".join(argv[:3]),
                                             "\n".join(tail)))


def ensure(build_dir=DEFAULT_BUILD_DIR):
    """Configure (once) and build the benchmark's targets; a Build."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BuildError("no ruusim source tree at %s" % ROOT)
    build_dir = Path(build_dir).resolve()
    cache_file = build_dir / "CMakeCache.txt"
    if cache_file.exists():
        why = refusal(read_cmake_cache(cache_file))
        if why:
            raise BuildError("refusing to measure %s: %s" % (build_dir, why))
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "perfbench-build.log"
    if not cache_file.exists():
        _run(["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DRUU_SANITIZE=OFF"], log)
    cache = read_cmake_cache(cache_file)
    why = refusal(cache)
    if why:
        raise BuildError("refusing to measure %s: %s" % (build_dir, why))
    _run(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
          "--target"] + TARGETS, log)
    return Build(dir=build_dir, ruusim=build_dir / "ruusim" / "apps" / "ruusim",
                 driver=build_dir / "perfbench_driver", cache=cache)


def _compiler(build):
    compiler = build.cache.get("CMAKE_CXX_COMPILER", "c++")
    for info in build.dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        text = info.read_text(errors="replace")
        ident = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        version = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)',
                            text)
        if ident and version:
            return "%s %s %s" % (compiler, ident.group(1), version.group(1))
    return compiler


def _commit():
    """git HEAD when the tree is a git checkout; else a source digest."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and head.stdout.strip():
                return head.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    sources = [ROOT / "CMakeLists.txt"]
    for top in ("src", "apps"):
        sources += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in sources:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def host_record(build):
    return {
        "nproc": os.cpu_count(),
        "compiler": _compiler(build),
        "build_type": build.cache.get("CMAKE_BUILD_TYPE", ""),
        "sanitize": build.cache.get("RUU_SANITIZE", "OFF"),
        "commit": _commit(),
    }
