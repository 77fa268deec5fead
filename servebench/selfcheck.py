#!/usr/bin/env python3
"""Sensitivity self-check: does the benchmark see a switch it should see,
and only where it should?

    python3 servebench/selfcheck.py [--seeds N] [--seconds S]

Run from the repository root. It reruns `wire_bulk` and `inproc_datapath`
with the engine's response-table fast path switched off
(`EngineConfig::with_fast_path(false)`, passed as `--fast-path off`)
next to the default, on N seeds, traced and untraced. Each seed runs the
two sides back to back, alternating which goes first; a metric's change
is the median over seeds of (off − on) / on:

* wire_bulk: `ops_per_s` must get worse by more than its bound and
  `engine.executor.ns_per_op` must move by more than ROW_BOUND, while
  every `net.proto.*` row stays within ROW_BOUND.
* inproc_datapath: the switch is a no-op past 16 bits, so every
  end-to-end metric except `setup_s` must stay within its bound and
  `engine.executor.ns_per_op` within ROW_BOUND.

Exits 0 when every check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Per-layer rows carry no bound of their own; use the largest end-to-end
# bound the contract allows.
ROW_BOUND = 0.25


def run(workload, seed, seconds, trace, fast_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--fast-path", fast_path],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"selfcheck: {workload} seed {seed} fast-path {fast_path} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def changes(workload, seeds, seconds):
    """Median over seeds of each metric's relative change, off vs on.

    Each seed runs both sides back to back (alternating which goes first),
    so a pair shares the host's state and the pair's ratio cancels it.
    """
    ratios = {}
    for seed in range(1, seeds + 1):
        sides = ["on", "off"] if seed % 2 else ["off", "on"]
        for trace in (0, 1):
            got = {side: run(workload, seed, seconds, trace, side) for side in sides}
            for name, on in got["on"].items():
                ratios.setdefault(name, []).append((got["off"][name] - on) / abs(on))
    return {name: statistics.median(v) for name, v in ratios.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    failures = []

    def check(ok, text):
        print(("PASS " if ok else "FAIL ") + text)
        if not ok:
            failures.append(text)

    bulk = changes("wire_bulk", args.seeds, args.seconds)
    d = bulk["ops_per_s"]
    check(d < -bounds["ops_per_s"]["bound"],
          f"wire_bulk ops_per_s moves {d:+.3f} (bound {bounds['ops_per_s']['bound']})")
    d = bulk["engine.executor.ns_per_op"]
    check(abs(d) > ROW_BOUND, f"wire_bulk engine.executor.ns_per_op moves {d:+.3f}")
    for name in sorted(n for n in bulk if n.startswith("net.proto.")):
        d = bulk[name]
        check(abs(d) <= ROW_BOUND, f"wire_bulk {name} stays ({d:+.3f})")

    inproc = changes("inproc_datapath", args.seeds, args.seconds)
    for name, m in bounds.items():
        if name == "setup_s":
            continue
        d = inproc[name]
        worse = -d if m["better"] == "higher" else d
        check(worse <= m["bound"], f"inproc_datapath {name} stays ({d:+.3f}, bound {m['bound']})")
    d = inproc["engine.executor.ns_per_op"]
    check(abs(d) <= ROW_BOUND, f"inproc_datapath engine.executor.ns_per_op stays ({d:+.3f})")

    print(f"{len(failures)} check(s) failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
