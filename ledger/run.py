#!/usr/bin/env python3
"""Build the `mce` CLI and the `conex-ledger` binary, then run one ledger measurement.

Run from the repository root:

    python3 ledger/run.py --workload explore-cold --seed 1 --seconds 10 --trace 0

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is the result object; everything else goes to
standard error.
"""

import os
import subprocess
import sys


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The daemon and the swarm workers run as `mce` subprocesses.
        ["cargo", "build", "--release", "--quiet", "--bin", "mce"],
        ["cargo", "build", "--release", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("ledger: build failed: " + " ".join(cmd))
    exe = os.path.join(target, "release", "conex-ledger")
    mce = os.path.join(target, "release", "mce")
    os.execve(exe, [exe, "--mce", mce, *sys.argv[1:]], env)


if __name__ == "__main__":
    main()
