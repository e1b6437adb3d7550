#!/usr/bin/env python3
"""Runs one benchmark workload against streamhist_tool and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
program and the harness in Release under .bench_build/perfbench; later runs
reuse that build. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A fuller record, with host and run facts, is
written to .bench_results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_results")
DEADLINE_S = 170  # every run ends within 180 s once the build exists
# Runs like the workloads of BENCHMARK.json but is not one of them: its
# 30 us reads follow the host's speed too closely for a bound (README).
UNGATED_WORKLOADS = ("read_only",)


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds streamhist_tool + perfbench_harness."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no streamhist sources here (missing %s)" % needed, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                      "--target", "perfbench_harness", "streamhist_tool"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    tool = os.path.join(BUILD, "streamhist", "tools", "streamhist_tool")
    harness = os.path.join(BUILD, "perfbench_harness")
    return tool, harness


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_revision():
    """The git commit, or a digest of the sources where there is no git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and (path == parts[1] or path.startswith(
                        parts[1].rstrip("/") + "/")) and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields[:8])
    except (OSError, ValueError):
        return 0, 0


def host_facts(workdir):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True, timeout=10).stdout.splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            pass
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": version or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "commit": source_revision(),
        "wal_dir_filesystem": filesystem_of(workdir),
        "streamhist_env": {k: v for k, v in os.environ.items()
                           if k.startswith("STREAMHIST_")},
        "python": platform.python_version(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]] + list(
            UNGATED_WORKLOADS):
        fail("unknown workload %r" % args.workload, 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    started = time.monotonic()
    tool, harness = build()
    workdir = os.path.join(ROOT, ".bench_run", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    facts = host_facts(workdir)
    budget = DEADLINE_S - (time.monotonic() - started)
    steal0, total0 = cpu_ticks()
    # The harness runs in its own process group, so that on a timeout the
    # servers it started go down with it.
    proc = subprocess.Popen(
        [harness, "--tool", tool, "--workdir", workdir,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(budget, 10))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("harness did not finish within %.0f s" % budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal1, total1 = cpu_ticks()
    # CPU time the hypervisor gave to others while this run wanted it: on a
    # shared host, tail latencies follow it.
    facts["cpu_steal_share"] = round(
        (steal1 - steal0) / (total1 - total0), 4) if total1 > total0 else None
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited with %d" % proc.returncode)
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if not isinstance(value, (int, float)):
            fail("harness did not report %s" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    os.makedirs(RESULTS, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "wall_s": round(time.monotonic() - started, 3),
              "host": facts, "result": result, "details": raw["details"]}
    name = "%s-trace%d-seed%d-%d.json" % (args.workload, args.trace, args.seed,
                                          int(time.time() * 1000))
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
