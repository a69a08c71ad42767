#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py --parent <file>... --change <file>...

Each file is the saved stdout of one `perfbench/run.py` run (its
preamble line names the workload and seed; its last line is the
result). For every workload and end-to-end metric this prints each
side's median and quartiles, the share of pairs the change won, and a
verdict by the rule the benchmark is held to:

* improved     -- at least ten pairs were run, the change wins at least
                  9 in 10 of them (ties count for neither), the
                  medians differ by more than the parent's own quartile
                  spread and the change fails no larger share of its
                  operations than the parent (a gain that sheds more
                  work does not count);
* unresolved   -- the parent's quartile spread is wider than the
                  metric's bound, unless every change run beats every
                  parent run;
* regressed    -- the change's median is worse than the parent's by
                  more than the bound;
* within bound -- otherwise.

Runs pair by seed when both sides ran the same seeds, else in order.
It also prints each side's fail ratio (failed / attempted).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_run(path):
    """(workload, seed, result) of one saved run."""
    workload, seed, result = None, None, None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("preamble "):
                pre = json.loads(line[len("preamble "):])
                workload, seed = pre["workload"], pre["seed"]
            elif line.startswith("{"):
                result = json.loads(line)
    if workload is None or result is None:
        raise ValueError(f"{path}: no preamble or result line")
    return workload, seed, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, bound, higher_is_better, fail_parent=0.0, fail_change=0.0):
    """The verdict and the share of pairs the change won.

    `fail_parent` and `fail_change` are each side's failed / attempted.
    """
    sign = 1 if higher_is_better else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    if won >= 0.9 and sign * (cm - pm) > spread:
        if fail_change > fail_parent:
            return "unresolved (more failures)", won
        if len(pairs) >= 10:
            return "improved", won
        return f"unresolved ({len(pairs)} pairs; a gain needs 10)", won
    if spread > bound * abs(pm) and not all(
        sign * (c - p) > 0 for p in parent for c in change
    ):
        return "unresolved", won
    if sign * (cm - pm) < -bound * abs(pm):
        return "regressed", won
    return "within bound", won


def group(runs):
    out = {}
    for workload, seed, result in runs:
        out.setdefault(workload, []).append((seed, result))
    return out


def pair_up(parent, change):
    """Orders both sides so that index i of each is one pair."""
    ps, cs = {s for s, _ in parent}, {s for s, _ in change}
    if ps == cs and len(ps) == len(parent) == len(change):
        parent = sorted(parent, key=lambda r: r[0])
        change = sorted(change, key=lambda r: r[0])
    return parent, change


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    parent = group(load_run(p) for p in args.parent)
    change = group(load_run(p) for p in args.change)
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload}: runs on one side only; nothing to compare")
            continue
        p_runs, c_runs = pair_up(parent[workload], change[workload])
        print(f"== {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        print(
            f"{'metric':26} {'parent median [q1, q3]':>36} "
            f"{'change median [q1, q3]':>36} {'won':>5}  verdict"
        )
        fail = lambda runs: sum(r["failed"] for _, r in runs) / max(
            1, sum(r["attempted"] for _, r in runs)
        )
        fp, fc = fail(p_runs), fail(c_runs)
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for _, r in p_runs if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for _, r in c_runs if name in r["metrics"]]
            if not pv or not cv:
                print(f"{name:26} missing on one side")
                continue
            v, won = verdict(pv, cv, m["bound"], m["better"] == "higher", fp, fc)
            pq, cq = quartiles(pv), quartiles(cv)
            side = lambda med, q: f"{med:.6g} [{q[0]:.6g}, {q[1]:.6g}]"
            print(
                f"{name:26} {side(statistics.median(pv), pq):>36} "
                f"{side(statistics.median(cv), cq):>36} {won:5.0%}  {v}"
            )
        print(f"fail_ratio: parent {fp:.3g}, change {fc:.3g}, delta {fc - fp:+.3g}")
        bad = [s for s, r in p_runs + c_runs if not r["correct"]]
        if bad:
            print(f"runs with failed correctness checks (seeds): {bad}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
