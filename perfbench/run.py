#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile|analyze|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build (release profile,
no shared dune cache), runs it, checks that the metrics it printed are
exactly the ones BENCHMARK.json names for the mode, and passes its output
through.  The last line of standard output is the result JSON.  Exits
non-zero, without a result line, when the build, the run or that check
fails.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    cands = [os.path.join(prefix, "bin", "dune")] if prefix else []
    cands += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in cands:
        if os.access(c, os.X_OK):
            return c
    die("dune not found")


def build():
    if not os.path.exists("dune-project"):
        die("run from the root of a checkout (no dune-project here)")
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache")))
    cmd = [find_dune(), "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        die("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--plant-error", action="store_true",
                    help="corrupt the first checked answer (self-test of the checks)")
    a = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % a.workload)

    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.plant_error:
        cmd.append("--plant-error")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(".bench_tmp", ignore_errors=True)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        die("benchmark exited with code %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(r.stdout)
        die("last line is not JSON")

    want = spec["per_layer" if a.trace else "end_to_end"]
    got = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in want}
    printed = {k: v.get("unit") for k, v in got.items()}
    if printed != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("metrics differ from BENCHMARK.json: printed %s, expected %s"
            % (sorted(printed.items()), sorted(expected.items())))
    sys.stdout.write(r.stdout if r.stdout.endswith("\n") else r.stdout + "\n")


if __name__ == "__main__":
    main()
