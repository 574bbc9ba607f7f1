#!/usr/bin/env python3
"""Runs one benchmark workload end to end (see perfbench/README.md).

    python3 perfbench/run.py --workload playback_704 --seed 1 --seconds 30 --trace 0

Builds the decoder libraries and the benchmark driver from source (into
$CARGO_TARGET_DIR, default .bench_build, under the checkout root), sets up
the seeded inputs, measures, and prints the driver's output. The last line
of stdout is the result object; the line before it is the run's details
(host identity, per-phase counts). Build logs go to stderr.

    python3 perfbench/run.py test               # the benchmark's own tests
    python3 perfbench/run.py compare OLD NEW    # refuses different hosts

OLD and NEW are saved stdout files of two runs of one workload.
"""
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("playback_704", "serve_segments")
DEADLINE_S = 175  # the whole run, build excluded


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d, "perfbench")


def build(targets):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the decoder sources (src/) are not in this checkout", 2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 2)
    return out


def run_step(cmd, deadline, capture=False):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before " + cmd[1])
    try:
        return subprocess.run(cmd, timeout=left, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        fail(cmd[1] + " timed out")


def parse_flags(argv):
    flags = {"workload": None, "seed": "1", "seconds": "30", "trace": "0"}
    i = 0
    while i < len(argv):
        key = argv[i][2:] if argv[i].startswith("--") else None
        if key not in flags or i + 1 >= len(argv):
            fail(f"bad argument {argv[i]!r}", 2)
        flags[key] = argv[i + 1]
        i += 2
    if flags["workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}", 2)
    if flags["trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1", 2)
    for k in ("seed", "seconds"):
        if not flags[k].isdigit():
            fail(f"--{k} must be a whole number", 2)
    return flags


def run(argv):
    f = parse_flags(argv)
    out = build(["perfbench_run"])
    deadline = time.monotonic() + DEADLINE_S
    exe = os.path.join(out, "perfbench_run")
    work = os.path.join(out, "runs", f"{f['workload']}-{f['seed']}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        r = run_step([exe, "setup", "--workload", f["workload"], "--seed",
                      f["seed"], "--out", work], deadline)
        if r.returncode:
            fail("set-up failed")
        cmd = [exe, "measure", "--workload", f["workload"], "--seed", f["seed"],
               "--seconds", f["seconds"], "--trace", f["trace"], "--in", work]
        if f["trace"] == "1":
            spans = os.path.join(out, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans-out", os.path.join(spans, f["workload"] + ".json")]
        r = run_step(cmd, deadline, capture=True)
        if r.returncode:
            fail("measure failed")
        sys.stdout.write(r.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test():
    out = build(["perfbench_test"])
    exe = os.path.join(out, "perfbench_test")
    if not os.path.exists(exe):
        fail("GTest not found; perfbench_test was not built", 2)
    sys.exit(subprocess.run([exe]).returncode)


def load_result(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def compare(old_path, new_path):
    (old_info, old), (new_info, new) = load_result(old_path), load_result(new_path)
    if old_info["identity"] != new_info["identity"]:
        print("refused: the runs come from different hosts", file=sys.stderr)
        for k in sorted(set(old_info["identity"]) | set(new_info["identity"])):
            a, b = old_info["identity"].get(k), new_info["identity"].get(k)
            if a != b:
                print(f"  {k}: {a!r} vs {b!r}", file=sys.stderr)
        sys.exit(3)
    if old_info["workload"] != new_info["workload"]:
        fail("the runs are of different workloads", 3)
    for name, m in old["metrics"].items():
        b = new["metrics"].get(name, {}).get("value")
        a = m["value"]
        change = f"{(b / a - 1) * 100:+.1f}%" if a and b is not None else "n/a"
        print(f"{name:40s} {a:14.6g} {b if b is not None else float('nan'):14.6g}"
              f"  {change} {m['unit']}")


def main(argv):
    if argv[:1] == ["test"]:
        self_test()
    elif argv[:1] == ["compare"] and len(argv) == 3:
        compare(argv[1], argv[2])
    else:
        run(argv)


if __name__ == "__main__":
    main(sys.argv[1:])
