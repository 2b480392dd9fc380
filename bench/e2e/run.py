#!/usr/bin/env python3
"""Build and run the end-to-end RPKI cache-pipeline benchmark.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench/e2e/rpki_bench.exe with dune from the checkout that holds
this file, runs it with the same arguments and passes its standard
output through. Before printing, it checks that the result line names
exactly the metrics BENCHMARK.json lists, with the same units; on any
build or run failure it exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXE = os.path.join(ROOT, "_build", "default", "bench", "e2e", "rpki_bench.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, rest = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project in %s: run from a full checkout" % ROOT)
    # No shared dune cache: the build reads and writes only the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./bench/e2e/rpki_bench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        fail("dune build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + rest
    # One domain unless the caller asks for more: on a small shared
    # machine the fork-join paths make run-to-run times several times
    # noisier than the sequential ones (see README.md).
    env = dict(os.environ)
    env.setdefault("RPKI_DOMAINS", "1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        fail("metrics differ from BENCHMARK.json")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
