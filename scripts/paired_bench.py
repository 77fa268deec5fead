#!/usr/bin/env python3
"""Paired parent-vs-change gate over the serving benchmark.

    python3 scripts/paired_bench.py BASE_TREE CHANGE_TREE [WORKLOAD...]

BASE_TREE and CHANGE_TREE are two checkouts of the repository (the
parent commit and the change). Workloads, end-to-end metrics, bounds,
the benchmark command and `run_seconds` come from BASE_TREE's
`BENCHMARK.json`, so a change cannot loosen the contract it is judged
by. With no WORKLOAD names every workload in the contract runs.

Each workload runs PAIRS pairs: pair i runs both trees with seed i,
back to back, and the tree that goes first alternates from pair to
pair. Each tree builds into its own `CARGO_TARGET_DIR`
(`<tree>/target/servebench`), so neither rebuilds the other.

A metric's change is the median over pairs of change/parent. It fails
when that median is worse than the metric's bound. When the parent's
own spread between quartiles, relative to its median, is wider than the
bound, the metric is `unresolved`: it then fails only if it is also
worse in at least WORSE_PAIRS_TO_FAIL of the pairs. A run that exits
non-zero or reports `correct: false`, on either side, fails the
workload, and so does a higher `failed / attempted` share on the change
side.

Prints one table per workload and one `FAIL <workload> <metric>: ...`
line per failure; exits 0 when nothing failed.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
WORSE_PAIRS_TO_FAIL = 9
SIDES = ("parent", "change")


def run_once(tree, command, workload, seed, seconds):
    """Runs one benchmark process in `tree`.

    Returns the result object (`{"correct", "attempted", "failed",
    "metrics"}`) plus the process's `exit` code; a run that printed no
    result object carries only `exit`.
    """
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, "target", "servebench"))
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr[-2000:])
        result = {}
    result["exit"] = done.returncode
    return result


def quartiles(values):
    """(q1, median, q3) of `values`."""
    return statistics.quantiles(values, n=4, method="inclusive")


def worse_by(ratio, better):
    """How much worse a change/parent ratio is (negative when better)."""
    return ratio - 1.0 if better == "lower" else 1.0 - ratio


def verdict(end_to_end, pairs):
    """Judges one workload's pairs against the contract's metrics.

    `end_to_end` is the contract's list of `{"name", "better", "bound"}`;
    `pairs` is a list of `{"parent": result, "change": result}` with
    results as `run_once` returns them. Returns `(rows, failures)`: one
    row per metric (a dict of the printed columns) and one line per
    failure.
    """
    failures = []
    for i, pair in enumerate(pairs, start=1):
        for side in SIDES:
            result = pair[side]
            if result["exit"] != 0:
                failures.append(f"run: pair {i} {side} exited {result['exit']}")
            elif result.get("correct") is not True:
                failures.append(f"run: pair {i} {side} reported correct: false")

    shares = {}
    for side in SIDES:
        attempted = sum(p[side].get("attempted", 0) for p in pairs)
        failed = sum(p[side].get("failed", 0) for p in pairs)
        shares[side] = failed / attempted if attempted else 0.0
    if shares["change"] > shares["parent"]:
        failures.append(f"failed share: {shares['change']:.3g} against the parent's "
                        f"{shares['parent']:.3g}")

    complete = [p for p in pairs if all("metrics" in p[side] for side in SIDES)]
    rows = []
    if not complete:
        return rows, failures
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        values = {side: [p[side]["metrics"][name]["value"] for p in complete]
                  for side in SIDES}
        ratios = [c / b for b, c in zip(values["parent"], values["change"])]
        r1, median_ratio, r3 = quartiles(ratios)
        row = {"metric": name, "ratio": median_ratio, "ratio_iqr": r3 - r1}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            row[side] = med
            row[side + "_iqr"] = (q3 - q1) / med
        row["wins"] = sum(worse_by(r, better) < 0 for r in ratios)
        worse_pairs = sum(worse_by(r, better) > 0 for r in ratios)
        unresolved = row["parent_iqr"] > bound
        failed = worse_by(median_ratio, better) > bound
        if unresolved:
            failed = failed and worse_pairs >= WORSE_PAIRS_TO_FAIL
        row["verdict"] = ("FAIL" if failed else "ok") + (" unresolved" if unresolved else "")
        if failed:
            failures.append(f"{name}: median change/parent {median_ratio:.3f}, worse in "
                            f"{worse_pairs}/{len(ratios)} pairs, bound {bound}")
        rows.append(row)
    return rows, failures


def print_table(workload, rows, pairs):
    print(f"{workload} ({pairs} pairs)")
    print(f"  {'metric':<14} {'parent median':>14} {'IQR':>7} {'change median':>14} "
          f"{'IQR':>7} {'wins':>5} {'ratio':>7} {'IQR':>6}  verdict")
    for r in rows:
        print(f"  {r['metric']:<14} {r['parent']:>14.4g} {r['parent_iqr']:>6.1%} "
              f"{r['change']:>14.4g} {r['change_iqr']:>6.1%} {r['wins']:>5} "
              f"{r['ratio']:>7.3f} {r['ratio_iqr']:>6.3f}  {r['verdict']}")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    base, change = (os.path.abspath(t) for t in argv[:2])
    with open(os.path.join(base, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    workloads = argv[2:] or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        sys.exit(f"paired_bench: unknown workload(s) {unknown}; the contract has {known}")
    trees = {"parent": base, "change": change}

    all_failures = []
    for workload in workloads:
        pairs = []
        for seed in range(1, PAIRS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_once(trees[side], spec["command"], workload, seed,
                                      spec["run_seconds"])
                values = {k: round(m["value"], 4)
                          for k, m in pair[side].get("metrics", {}).items()}
                print(f"paired_bench: {workload} pair {seed} {side} exit {pair[side]['exit']} "
                      f"{values}", file=sys.stderr, flush=True)
            pairs.append(pair)
        rows, failures = verdict(spec["end_to_end"], pairs)
        print_table(workload, rows, len(pairs))
        for failure in failures:
            print(f"FAIL {workload} {failure}")
        print(flush=True)
        all_failures += failures
    print(f"paired_bench: {len(all_failures)} failure(s)" if all_failures
          else "paired_bench: PASS")
    return 1 if all_failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
