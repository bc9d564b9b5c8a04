#!/usr/bin/env python3
"""Repository benchmark: builds the harness and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The harness (perfbench/src) and the
repository's libraries (src/) are built in Release mode into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, and the run also prints the
per-layer wall-time table and writes its spans next to the build.
--smoke runs every workload at toy size, traced and untraced, and checks
that every metric appears with its unit. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        fail("build failed")
    return os.path.join(out, "sbk_perfbench")


def cmake_cache(out):
    cache = {}
    with open(os.path.join(out, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    """SHA-256 over the sources the harness is built from."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; don't report an enclosing repo
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(build_facts, seed):
    cache = cmake_cache(build_dir())
    btype = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "commit": git_commit() or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "cmake_build_type": btype,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{btype.upper()}", "")])),
        "compiler": cache.get("CMAKE_CXX_COMPILER", "") + " "
                    + build_facts.get("compiler", ""),
        "optimized": build_facts.get("optimized"),
        "sanitizers": build_facts.get("sanitizers", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def refuse_unfit_build(prov):
    if (prov["cmake_build_type"] in ("", "Debug") or not prov["optimized"]
            or prov["sanitizers"] or "-fsanitize" in prov["cxx_flags"]):
        fail("refusing to record from a debug or sanitizer build: "
             + json.dumps(prov), code=3)


def run_harness(binary, workload, seed, seconds, trace, toy=False):
    """Runs the harness; returns (report lines, parsed last line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if toy:
        cmd.append("--toy")
    if trace:
        cmd += ["--spans", os.path.join(build_dir(), f"spans-{workload}-{seed}.json")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness exceeded {RUN_TIMEOUT_S} s", code=1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload}: harness exited with {r.returncode}", code=1)
    return lines[:-1], json.loads(lines[-1])


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def shape_metrics(spec, workload, raw, trace):
    """Checks the harness's metrics against BENCHMARK.json and fills the
    per-layer metrics of layers this workload never enters with 0."""
    want = expected_metrics(spec, trace)
    got = {}
    for name, m in raw["metrics"].items():
        if name not in want or want[name] != m["unit"]:
            fail(f"{workload}: metric {name} [{m['unit']}] is not in "
                 "BENCHMARK.json with that unit", code=4)
        if not math.isfinite(m["value"]):
            fail(f"{workload}: metric {name} is {m['value']}", code=4)
        got[name] = {"value": m["value"], "unit": m["unit"]}
    missing = [n for n in want if n not in got]
    if missing and not trace:
        fail(f"{workload}: end-to-end metrics missing: {missing}", code=4)
    for name in missing:
        got[name] = {"value": 0.0, "unit": want[name]}
    return {name: got[name] for name in want}


def run_one(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    binary = build()
    report, raw = run_harness(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    prov = provenance(raw["build"], args.seed)
    refuse_unfit_build(prov)
    metrics = shape_metrics(spec, args.workload, raw, args.trace)

    problems = list(raw["problems"])
    expected = load_json(os.path.join(BENCH_DIR, "expected.json"))
    if args.seed == expected["default_seed"]:
        want = expected["digests"][args.workload]
        if raw["digest"] != want:
            problems.append(f"digest {raw['digest']} != expected {want} for the "
                            f"default seed {args.seed}")
    for line in report:
        print(line)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"digest: {raw['digest']}")
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    correct = raw["correct"] and not problems
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


def smoke(spec):
    """Every workload at toy size, untraced and traced: each run is
    correct, every end-to-end metric appears on every workload, and every
    per-layer metric is measured by at least one workload."""
    binary = build()
    measured = set()
    for w in spec["workloads"]:
        for trace in (False, True):
            _, raw = run_harness(binary, w["name"], 1, 0.05, trace, toy=True)
            if not raw["correct"]:
                fail(f"smoke: {w['name']} trace={int(trace)}: {raw['problems']}",
                     code=1)
            shape_metrics(spec, w["name"], raw, trace)
            measured.update(raw["metrics"])
            print(f"smoke: {w['name']} trace={int(trace)}: ok "
                  f"({len(raw['metrics'])} metrics)")
    unmeasured = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    if unmeasured:
        fail(f"smoke: per-layer metrics no workload measures: {unmeasured}", code=1)
    print("smoke: ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.smoke:
        return smoke(spec)
    if not args.workload:
        fail("--workload is required (or --smoke)")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        fail("--seconds must be > 0")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
