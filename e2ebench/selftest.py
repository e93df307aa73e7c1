#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny input sizes.

    python3 e2ebench/selftest.py

Run from the root of a source checkout; takes well under a minute. It runs
every workload untraced and traced through run.py and checks the result
line, then the negative cases: a perturbed job cost and a dropped allocd
reply must each fail the check (exit 1, "correct": false) and lower
success_frac; a checkout without the library sources must exit nonzero
without printing a result; the same seed must give the same inputs.
Exits 0 when every case passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

failures = []


def run(workload, trace, inject="none", seed=1, cwd=ROOT):
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--scale", "tiny", "--inject", inject]
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=300)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    meta = json.loads(lines[-2])["meta"] if len(lines) >= 2 else None
    return r.returncode, result, meta, r.stderr


def expect(case, ok, detail=""):
    note = f"  ({detail})" if not ok and detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {case}{note}")
    if not ok:
        failures.append(case)


def positive_cases():
    for w in WORKLOADS:
        for trace in (0, 1):
            code, res, meta, err = run(w, trace)
            kind = "per_layer" if trace else "end_to_end"
            names = [m["name"] for m in SPEC[kind]]
            ok = (code == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1
                  and sorted(res["metrics"]) == sorted(names))
            if ok and not trace:
                ok = res["metrics"]["success_frac"]["value"] == 1
            expect(f"{w} trace={trace} passes every check", ok,
                   err.strip().splitlines()[-1] if err.strip() else str(res))


def negative_cases():
    for w, inject in (("replay-adaptive", "cost"),
                      ("replay-sa-dynamic", "cost"),
                      ("allocd-closed", "drop-reply")):
        for trace in (0, 1):
            code, res, _, _ = run(w, trace, inject)
            ok = (code == 1 and res is not None and not res["correct"]
                  and res["failed"] > 0)
            if ok and not trace:
                ok = res["metrics"]["success_frac"]["value"] < 1
            expect(f"{w} trace={trace} --inject {inject} fails the check", ok,
                   str(res))


def bare_directory_case():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for top in SPEC["paths"]:
        shutil.copytree(ROOT / top, bare / top,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _, _ = run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect("a directory without the sources exits nonzero, no result",
           code != 0 and res is None, f"exit {code}")


def seed_cases():
    a = run("replay-adaptive", 0, seed=7)
    b = run("replay-adaptive", 0, seed=7)
    c = run("replay-adaptive", 0, seed=8)
    digest = lambda r: r[2]["info"]["digest"]
    cost = lambda r: r[1]["metrics"]["eq6_cost_mean"]
    expect("the same seed gives the same inputs and placements",
           digest(a) == digest(b) and cost(a) == cost(b))
    expect("another seed gives other inputs", digest(a) != digest(c))


def main():
    positive_cases()
    negative_cases()
    bare_directory_case()
    seed_cases()
    print(f"{len(failures)} failed" if failures
          else "all self-test cases passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
