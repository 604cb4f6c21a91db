#!/usr/bin/env python3
"""Repeat the benchmark and compare two builds of the program. Stdlib only.

Repeat one workload N times (seeds first-seed .. first-seed+N-1) and
report each metric's median and quartiles against the bounds in
BENCHMARK.json:

    python3 perfbench/compare.py repeat --workload zone_churn --runs 10

Compare a parent checkout with a change checkout, alternating which side
runs first in each pair and giving both sides the same seed:

    python3 perfbench/compare.py pair --parent ../parent --change . \\
        --workload resolver_steady --runs 10

Re-judge two saved result files (from --save) without running anything:

    python3 perfbench/compare.py judge parent.json change.json

The pair rule: a gain is claimed only when the change wins at least nine
in ten pairs (ties count for neither side) and the medians differ by more
than the parent's own quartile distance. When either side's spread
(quartile distance over median) exceeds the metric's bound the verdict is
"unresolved", unless every change run beats every parent run. A change
whose median is worse than the parent's by more than the bound is a
regression.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(spec, trace):
    if trace:
        return [dict(m, bound=None) for m in spec["per_layer"]]
    return spec["end_to_end"]


def run_once(root, workload, seed, seconds, trace):
    """Runs the benchmark in `root`; returns the result dict or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode != 0 or not result or not result.get("correct"):
        print(f"  seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
        return None
    return result


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def better(direction, a, b):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def report_repeat(specs, runs):
    print(f"{'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    rows = {}
    for m in specs:
        values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
        if not values:
            continue
        s = summary(values)
        bound = m.get("bound")
        if bound is None:
            verdict = "-"
        elif s["spread"] <= bound / 3:
            verdict = "steady"
        elif s["spread"] <= bound:
            verdict = "within bound, above bound/3"
        else:
            verdict = "TOO NOISY"
        rows[m["name"]] = dict(s, bound=bound, verdict=verdict, values=values)
        print(f"{m['name']:30} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['spread']:8.4f} {bound if bound is not None else '-':>6}  {verdict}")
    return rows


def judge(specs, parent_runs, change_runs):
    pairs = list(zip(parent_runs, change_runs))
    print(f"{len(pairs)} pairs")
    print(f"{'metric':30} {'parent median [q1,q3]':>34} {'change median [q1,q3]':>34} "
          f"{'wins':>6}  verdict")
    rows = {}
    for m in specs:
        name, direction, bound = m["name"], m["better"], m.get("bound")
        pv = [p["metrics"][name]["value"] for p, _ in pairs]
        cv = [c["metrics"][name]["value"] for _, c in pairs]
        if not pv:
            continue
        ps, cs = summary(pv), summary(cv)
        wins = sum(1 for p, c in zip(pv, cv) if better(direction, c, p))
        every = all(better(direction, c, p) for c in cv for p in pv)
        delta = cs["median"] - ps["median"]
        worse_by = (delta if direction == "lower" else -delta) / abs(ps["median"]) \
            if ps["median"] else 0.0
        if wins >= math.ceil(0.9 * len(pairs)) and abs(delta) > ps["q3"] - ps["q1"]:
            verdict = "GAIN"
        elif every:
            verdict = "better in every run"
        elif bound is not None and max(ps["spread"], cs["spread"]) > bound:
            verdict = "unresolved (spread above bound)"
        elif bound is not None and worse_by > bound:
            verdict = "REGRESSION"
        else:
            verdict = "no change within bound" if bound is not None else "no claim"
        rows[name] = {"parent": ps, "change": cs, "wins": wins, "pairs": len(pairs),
                      "worse_by": worse_by, "verdict": verdict}
        fmt = lambda s: f"{s['median']:.5g} [{s['q1']:.5g},{s['q3']:.5g}]"
        print(f"{name:30} {fmt(ps):>34} {fmt(cs):>34} {wins:>3}/{len(pairs):<2}  {verdict}")
    return rows


def save(path, payload):
    if path:
        with open(path, "w") as f:
            json.dump(payload, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("repeat", "pair"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=None,
                       help="default: run_seconds from BENCHMARK.json")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--save", default=None, help="write runs and verdicts as JSON")
    sub.choices["repeat"].add_argument("--root", default=os.path.dirname(HERE))
    sub.choices["pair"].add_argument("--parent", required=True)
    sub.choices["pair"].add_argument("--change", required=True)
    j = sub.add_parser("judge")
    j.add_argument("parent")
    j.add_argument("change")
    args = ap.parse_args()

    if args.cmd == "judge":
        with open(args.parent) as f:
            parent = json.load(f)
        with open(args.change) as f:
            change = json.load(f)
        spec = load_spec(os.path.dirname(HERE))
        judge(metric_specs(spec, parent.get("trace", 0)), parent["runs"], change["runs"])
        return 0

    root = args.root if args.cmd == "repeat" else args.change
    spec = load_spec(root)
    seconds = args.seconds or spec["run_seconds"]
    specs = metric_specs(spec, args.trace)
    if args.cmd == "repeat":
        runs = []
        for i in range(args.runs):
            r = run_once(root, args.workload, args.first_seed + i, seconds, args.trace)
            if r:
                runs.append(r)
        print(f"{args.workload}: {len(runs)}/{args.runs} runs correct, {seconds}s each")
        rows = report_repeat(specs, runs)
        save(args.save, {"workload": args.workload, "trace": args.trace, "runs": runs,
                         "summary": rows})
        return 0 if len(runs) == args.runs else 1

    parent_runs, change_runs = [], []
    for i in range(args.runs):
        seed = args.first_seed + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        got = {}
        for side, root_dir in order:
            got[side] = run_once(root_dir, args.workload, seed, seconds, args.trace)
        if got["parent"] and got["change"]:
            parent_runs.append(got["parent"])
            change_runs.append(got["change"])
    rows = judge(specs, parent_runs, change_runs)
    save(args.save, {"workload": args.workload, "trace": args.trace,
                     "parent_runs": parent_runs, "change_runs": change_runs, "verdicts": rows})
    return 0 if len(parent_runs) == args.runs else 1


if __name__ == "__main__":
    sys.exit(main())
