#!/usr/bin/env python3
"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. A tiny pass over every workload, untraced and traced: each run must be
   correct and print exactly the metrics BENCHMARK.json names, each with
   its unit, in the human table and in the JSON result line.
2. Planted bad answers: each corrupts one answer so that one correctness
   check must fire (failed >= 1, correct false), and scoring the untiled
   vector as the choice must raise repl_miss_pct.
3. A directory holding only BENCHMARK.json and the benchmark's files must
   make the runner exit non-zero without printing a result.
Exits non-zero on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RUNNER = SPEC["command"]
WORKLOADS = ("tile-cme", "serve-fleet")


def run(workload, trace=0, plant="", cwd=ROOT):
    cmd = RUNNER + ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
    if plant:
        cmd += ["--plant", plant]
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return r


def result_of(r, what):
    assert r.returncode == 0, f"{what}: exit {r.returncode}\n{r.stdout}\n{r.stderr}"
    lines = r.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_names(what, lines, result, expected):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"{what}: metrics differ from BENCHMARK.json: {got} vs {want}"
    for name, unit in want.items():
        assert any(l.split()[:2] == ["metric", name] and f" {unit} " in l and "(n=" in l
                   for l in lines), f"{what}: no table line for {name} [{unit}]"


def main():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    for w in WORKLOADS:
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            what = f"{w} trace={trace}"
            lines, res = result_of(run(w, trace), what)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, \
                f"{what}: not correct: {lines[-1]}"
            assert any(l.startswith("input ") for l in lines), f"{what}: inputs not printed"
            check_names(what, lines, res, expected)
            if w == "tile-cme" and trace:
                assert any(l.startswith("symbolic quality") for l in lines), \
                    f"{what}: symbolic pass not judged"
            print(f"ok   {what}: {len(res['metrics'])} metrics, "
                  f"{res['attempted']} operations")

    plants = [("tile-cme", "illegal"), ("tile-cme", "repeat"),
              ("tile-cme", "warm"), ("serve-fleet", "warm"),
              ("serve-fleet", "pair"), ("serve-fleet", "inproc")]
    for w, plant in plants:
        what = f"{w} plant={plant}"
        _, res = result_of(run(w, plant=plant), what)
        assert res["failed"] >= 1 and not res["correct"], f"{what}: check did not fire"
        print(f"ok   {what}: {res['failed']} failed of {res['attempted']}")

    _, honest = result_of(run("tile-cme"), "tile-cme honest")
    _, untiled = result_of(run("tile-cme", plant="untiled"), "tile-cme plant=untiled")
    h = honest["metrics"]["repl_miss_pct"]["value"]
    u = untiled["metrics"]["repl_miss_pct"]["value"]
    assert u > h, f"judging the untiled vector did not raise repl_miss_pct ({u} vs {h})"
    print(f"ok   tile-cme plant=untiled: repl_miss_pct {u:.3f} % > {h:.3f} %")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    r = run("tile-cme", cwd=bare)
    last = r.stdout.splitlines()[-1] if r.stdout.strip() else ""
    assert r.returncode != 0 and not last.startswith("{"), \
        "runner succeeded without the program's sources"
    shutil.rmtree(bare)
    print(f"ok   bare directory: exit {r.returncode}, no result")
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
