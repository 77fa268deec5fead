#!/usr/bin/env python3
"""Build the serving benchmark from source, then run one workload.

    python3 servebench/run.py --workload <wire_bulk|wire_small|inproc_datapath>
                              --seed <n> --seconds <n> --trace <0|1>
                              [--fast-path <on|off>]

Run it from the repository root. The benchmark is its own Cargo package
(`servebench/Cargo.toml`) with path dependencies on the repository's
crates; it builds into `$CARGO_TARGET_DIR` (default `servebench/target`).
The last line of standard output is the result object; build and
progress output goes to standard error. Exits non-zero, printing no
result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Builds the release binary and returns its path, or None."""
    try:
        done = subprocess.run(
            [
                "cargo", "build", "--release", "--offline",
                "--manifest-path", os.path.join(HERE, "Cargo.toml"),
                "--message-format=json-render-diagnostics",
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"servebench: build failed with code {done.returncode}", file=sys.stderr)
        return None
    for line in done.stdout.splitlines():
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (message.get("reason") == "compiler-artifact"
                and message.get("target", {}).get("name") == "servebench"
                and message.get("executable")):
            return message["executable"]
    print("servebench: the build produced no executable", file=sys.stderr)
    return None


def main():
    executable = build()
    if executable is None:
        return 1
    try:
        done = subprocess.run([executable] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
