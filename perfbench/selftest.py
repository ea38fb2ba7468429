#!/usr/bin/env python3
"""Self-test of the search benchmark at its smallest size.

Run from the repository root:

    python3 perfbench/selftest.py

It runs one dl_pairs request untraced and traced, and checks that each run
exits 0 and prints every metric of BENCHMARK.json, with its unit, both in the
final JSON line and in the report above it. It then supplies a wrong expected
Best and checks that the run fails loudly: non-zero exit, "correct": false,
and a MISMATCH message on standard error.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(*extra):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "dl_pairs", "--seed", "42", "--seconds", "0", "--requests", "1",
         *extra], capture_output=True, text=True)


def result(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_metrics(p, metrics, what):
    if p.returncode != 0:
        sys.exit(f"FAIL {what}: exit {p.returncode}\n{p.stderr}")
    r = result(p)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}, r.keys()
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in metrics}
    assert set(r["metrics"]) == set(want), set(r["metrics"]) ^ set(want)
    report = [line.split() for line in p.stdout.splitlines()[:-1]]
    for name, unit in want.items():
        got = r["metrics"][name]
        assert got["unit"] == unit, (name, got)
        assert isinstance(got["value"], (int, float)), (name, got)
        assert any(f[:1] == [name] and unit in f for f in report), name
    print(f"ok   {what}: {len(want)} metrics with units")
    return p.stdout


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    out = check_metrics(run("--trace", "0"), bench["end_to_end"], "untraced")
    check_metrics(run("--trace", "1"), bench["per_layer"], "traced")

    # A wrong expected Best: the recorded winner with one cycle more.
    lines = out.splitlines()
    best = lines[lines.index("best configurations:") + 1].split()
    best[-1] = str(int(best[-1]) + 1)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(build_root, exist_ok=True)
    wrong = os.path.join(build_root, "selftest-wrong-best.txt")
    with open(wrong, "w") as f:
        f.write(" ".join(best) + "\n")
    p = run("--trace", "0", "--expect", wrong)
    if p.returncode == 0 or result(p)["correct"] or "MISMATCH" not in p.stderr:
        sys.exit(f"FAIL wrong expected Best was accepted:\n{p.stderr}")
    print("ok   wrong expected Best fails loudly")


if __name__ == "__main__":
    main()
