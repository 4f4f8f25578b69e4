#!/usr/bin/env python3
"""Build the server and the benchmark driver from source, then run one
benchmark run.

    python3 perfbench/run.py --workload cold-small --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Workloads: cold-small, hot-repeat,
large-solve, drift.  The last line of standard output is the result
object; everything before it is the run's report (host fingerprint,
replay digest, regime ratios, per-method counts, all end-to-end
metrics).  Exits non-zero without a result when the source tree is
missing or the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("perfbench", "out")
SERVER = os.path.join("_build", "default", "bin", "tlp_serve.exe")
DRIVER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_identity():
    """The git commit when there is one, else an MD5 over the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.md5()
    for top in ("lib", "bin"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-md5:" + h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["cold-small", "hot-repeat", "large-solve", "drift"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", os.path.join("bin", "tlp_serve.ml"),
                 os.path.join("lib", "server", "server.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("source tree incomplete: %s is missing" % need)

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, SERVER[len("_build/default/"):],
             DRIVER[len("_build/default/"):]],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed with code %d" % build.returncode)

    nproc = len(os.sched_getaffinity(0))
    cmd = [os.path.join(ROOT, DRIVER),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(ROOT, SERVER),
           "--out", os.path.join(ROOT, OUT),
           "--nproc", str(nproc),
           "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
           "--commit", source_identity()]
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    # Its own session, so a timeout can take down the driver and the
    # server it spawned together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("driver exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("driver printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
