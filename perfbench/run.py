#!/usr/bin/env python3
"""Build the benchmark from the sources of this checkout and run it.

    python3 perfbench/run.py --workload exact-certified --seed 1 \
        --seconds 25 --trace 0

Everything it builds or writes goes under .bench_build/ in the
checkout.  The benchmark's own report goes to standard output, its last
line one JSON object; build output goes to standard error.  Exits
non-zero, without a result line, if the sources are missing, the build
fails, or the run fails or overruns.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "dune", "default", "perfbench", "bench.exe")
RUN_LIMIT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def sandbox_env():
    env = dict(os.environ)
    for var, sub in (("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "xdg-cache"),
                     ("XDG_CONFIG_HOME", "xdg-config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s next to perfbench/: not a source checkout" % needed)
    cmd = ["dune", "build", "--root", ROOT,
           "--build-dir", os.path.join(BUILD, "dune"),
           "--cache=disabled", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--perturb-expected", action="store_true")
    args = ap.parse_args()

    env = sandbox_env()
    build(env)
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [EXE, "--work-dir", work, "--commit", commit()]
    if args.self_test:
        cmd.append("--self-test")
    else:
        if not args.workload:
            fail("--workload is required")
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.perturb_expected:
        cmd.append("--perturb-expected")

    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("run exceeded %d s" % RUN_LIMIT_S)
    finally:
        # the DSE workers are forked children; none may outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    shutil.rmtree(work, ignore_errors=True)

    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    if args.self_test:
        sys.stdout.write(out)
        return
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail("the last line is not a result object")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
