#!/usr/bin/env python3
"""End-to-end benchmark of commsched: one command for every workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the benchmark package in
e2ebench/ (and with it the library from src/) into .bench_build/, runs one
workload, checks its outputs and prints, as the last line of standard
output, one JSON object:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The line before it records the run's
configuration (commit, source digest, nproc, compiler, build type, seed)
and every check. Exits 1 when a check fails or an output is wrong, 2 when
the checkout holds no commsched sources. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("replay-adaptive", "replay-sa-dynamic", "allocd-closed")
# A run of the program may take this long before it is stopped and failed.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--scale", default="full", choices=("full", "tiny"),
                   help="input size; tiny is the self-test's")
    p.add_argument("--inject", default="none",
                   choices=("none", "cost", "drop-reply"),
                   help="deliberate fault (self-test negative cases)")
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    return args


def build():
    """Configure once, then build incrementally; compiler output goes to
    standard error so standard output stays the result."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no commsched sources at {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "e2ebench", "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD_DIR / "e2ebench"


def hermetic_env():
    """The caller's environment without any knob the library reads."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("COMMSCHED_") and k != "JOBAWARE"}


def run_program(binary, args):
    """Run the e2ebench program, returning (report, peak RSS in MB). The
    RSS is the program's own, from wait4, so the build does not count."""
    out_path = BUILD_DIR / f"out-{os.getpid()}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--inject", args.inject,
           "--socket-dir", os.path.relpath(BUILD_DIR, ROOT)]
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT, env=hermetic_env())
    deadline = time.monotonic() + RUN_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            break
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            os.wait4(proc.pid, 0)
            out_path.unlink(missing_ok=True)
            fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        time.sleep(0.05)
    # wait4 reaped the child; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text()
    out_path.unlink(missing_ok=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        fail(f"{args.workload} printed no report")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the
    measured code where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root", 2)
    spec = json.loads(spec_path.read_text())
    binary = build()
    report, peak_rss_mb = run_program(binary, args)

    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    produced = dict(report["metrics"])
    if args.trace == "0":
        produced["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    problems = []
    metrics = {}
    for m in wanted:
        got = produced.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
            continue
        value = got["value"]
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, "
                            f"expected {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} is not a finite number")
        elif args.trace == "0" and value <= 0:
            problems.append(f"metric {m['name']} is {value}, must be > 0")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = int(report["attempted"])
    failed = int(report["failed"])
    for c in report["checks"]:
        if c["failed"]:
            problems.append(f"check '{c['name']}': {c['failed']} of "
                            f"{c['attempted']} wrong {c['detail']}".rstrip())
    correct = not problems and failed == 0 and attempted > 0
    if problems and failed == 0:
        failed = 1  # a malformed report is a failed operation too
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": int(args.trace),
        "seconds": args.seconds, "scale": args.scale, "inject": args.inject,
        "commit": commit(), "source_digest": source_digest(),
        "nproc": os.cpu_count(), "compiler": report["compiler"],
        "build_type": report["build_type"],
        "env_pinned": report["env_pinned"],
        "env_cleared": report["env_cleared"],
        "checks": report["checks"], "info": report["info"],
        "problems": problems,
    }
    for p in problems:
        print(f"e2ebench: {p}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
