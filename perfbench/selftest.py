#!/usr/bin/env python3
"""Self-test of the benchmark. Stdlib only.

    python3 perfbench/selftest.py [--seconds 8]

Runs a short pass of every workload, untraced and traced, and asserts:
  - the run exits 0 and reports itself correct with no failed queries;
  - every metric BENCHMARK.json names is emitted, with its unit, as a
    finite number, and nothing else is;
  - the same seed reproduces the same corpus and expected-answer digests
    and a different seed does not;
  - layer_map.json maps exactly the per-layer metrics, onto end-to-end
    metrics and workloads that exist, and the README names every metric.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper lives beside this file)

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def short_pass(workload, trace, seconds, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    tag = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{tag}: exit 0")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        check(False, f"{tag}: result line is JSON")
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
    check(result.get("correct") is True, f"{tag}: answers verified, conservation and gates hold")
    check(result.get("failed") == 0 and result.get("attempted", 0) >= 1,
          f"{tag}: no failed queries ({result.get('failed')} of {result.get('attempted')})")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    check({k: v.get("unit") for k, v in got.items()} == want, f"{tag}: every metric with its unit")
    check(all(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])
              for v in got.values()), f"{tag}: every value a finite number")
    if not trace:
        check(all(got[m]["value"] != 0 for m in want), f"{tag}: no end-to-end metric is 0")


def digests(binary, workload, seed):
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed), "--digest"],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"] for m in spec["end_to_end"]}

    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    check(set(layer_map) == {m["name"] for m in spec["per_layer"]},
          "layer_map.json covers exactly the per-layer metrics")
    check(all(m["metric"] in e2e | set(layer_map) and m["workload"] in workloads
              for entry in layer_map.values() for m in entry["moves"]),
          "layer_map.json names only existing metrics and workloads")
    with open(os.path.join(HERE, "README.md")) as f:
        readme = f.read()
    names = e2e | set(layer_map) | set(workloads)
    missing = sorted(n for n in names if f"`{n}`" not in readme)
    check(not missing, f"README names every metric and workload {missing or ''}")

    binary = run.build()
    check(binary is not None, "benchmark builds")
    if binary is None:
        return 1
    for w in workloads:
        a, b, c = digests(binary, w, 1), digests(binary, w, 1), digests(binary, w, 2)
        check(a == b, f"{w}: same seed, same corpus and expected-answer digests")
        check(a["corpus_digest"] != c["corpus_digest"] and
              a["expected_digest"] != c["expected_digest"],
              f"{w}: another seed, other digests")
    for w in workloads:
        for trace in (0, 1):
            short_pass(w, trace, args.seconds, spec)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
