#!/usr/bin/env python3
"""psnap end-to-end benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload wordcount|climate|serve \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds the benchmark (perfbench/CMakeLists.txt, Release, into
.bench_build/perfbench) when needed, runs the workload, and prints the
driver's summary lines, one provenance line (host, compiler, build type,
source revision, seed, load average at start, and the host's iowait and
steal share of CPU time during the measured run) and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. setup_s is the median
over SETUP_SAMPLES set-ups: SETUP_SAMPLES - 1 set-up-only processes run
before the measured one, each paying its own native compiles. With
--trace 1 the metrics are the per-layer ones, and the span trace is
written to .bench_build/traces/<workload>-seed<N>.json (Chrome trace-event
format). Every file the benchmark writes stays under .bench_build.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BUILD_DIR, "psnap_perfbench")
WORKLOADS = ("wordcount", "climate", "serve")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170


def build(env):
    """Configure (once) and build the benchmark; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: psnap sources not found under src/; "
                 "run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   stdout=sys.stderr, env=env, check=True)


def source_digest():
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def compiler_and_build_type():
    compiler, build_type = None, None
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            cache = f.read()
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
        build_type = m.group(1) if m else None
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
        if m:
            out = subprocess.run([m.group(1), "--version"],
                                 capture_output=True, text=True, timeout=10)
            compiler = out.stdout.splitlines()[0] if out.stdout else m.group(1)
    except (OSError, subprocess.SubprocessError):
        pass
    return compiler, build_type


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def cpu_times():
    """The aggregate /proc/stat CPU counters (None where unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def host_shares(before, after):
    """iowait and steal as percentages of all CPU time between samples."""
    if not before or not after or len(before) < 8:
        return None, None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8]) or 1
    return 100.0 * delta[4] / total, 100.0 * delta[7] / total


def provenance(seed, load_1m, cpu_before, cpu_after):
    compiler, build_type = compiler_and_build_type()
    iowait, steal = host_shares(cpu_before, cpu_after)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler,
        "build_type": build_type,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
        "loadavg_1m_at_start": load_1m,
        "cpu_iowait_pct": iowait,
        "cpu_steal_pct": steal,
    }


def run_binary(args, env):
    """Run the driver; return (exit code, stdout lines)."""
    proc = subprocess.run([BINARY] + args, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    args = parser.parse_args()
    load_1m = os.getloadavg()[0]

    # Compilers (the build's and the native tier's) write their temporary
    # files under TMPDIR: keep them inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build(env)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds),
              "--workdir", os.path.join(BUILD, "work")]
    if args.smoke:
        common.append("--smoke")

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, lines = run_binary(common + ["--trace", "0", "--setup-only"],
                                     env)
            if code != 0 or not lines:
                sys.exit("perfbench: set-up-only run failed")
            setup_samples.append(
                json.loads(lines[-1])["metrics"]["setup_s"]["value"])

    extra = ["--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        extra += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    cpu_before = cpu_times()
    code, lines = run_binary(common + extra, env)
    cpu_after = cpu_times()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("perfbench: %s run produced no result (exit %d)"
                 % (args.workload, code))
    result = json.loads(lines[-1])
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setup_samples.append(setup["value"])
        setup["value"] = statistics.median(setup_samples)
        lines.insert(-1, "# setup_s samples: " +
                     " ".join("%.4f" % s for s in setup_samples))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"provenance": provenance(args.seed, load_1m, cpu_before,
                                               cpu_after),
                      "workload": args.workload}))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
