#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload vod-cold|fleet-flash|chaos-warm \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first form builds
perfbench/perfbench.exe with dune (the build log goes to stderr) and
runs it; its last line of standard output is the result JSON. The
second form checks that the deterministic metrics repeat exactly for
one seed and move with another (see README.md).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175

WORKLOADS = ["vod-cold", "fleet-flash", "chaos-warm"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SELF_TEST_SECONDS = 2

# Metrics that are pure functions of the seed: they must repeat exactly.
EXACT_END_TO_END = ["served_pct", "device_savings_pct", "mean_psnr_db"]
EXACT_PER_LAYER = [
    "codec.encode.bytes_per_frame",
    "streaming.retransmissions_per_session",
    "streaming.concealed_frames_per_session",
    "streaming.degraded_scenes_per_session",
    "fleet.ticks_per_session",
    "fleet.shard.load_max_over_mean",
    "fleet.shard.shed_max_share",
    "fleet.cache.hits",
    "fleet.cache.misses",
    "fleet.cache.hit_ratio",
    "obs.journal.events_per_session",
    "obs.journal.bytes_per_session",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, **kw):
    """Run cmd to completion; kill it and fail past the timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def build():
    # The benchmark links the repo's libraries, so it needs the whole
    # source tree around it, not just its own directory.
    for needed in ("dune-project", "lib", "examples"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at %s: run from the root of a full checkout" % (needed, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    rc, _ = run_checked(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if rc != 0:
        fail("build failed (exit %d)" % rc)


def run_bench(args, capture=False):
    rc, out = run_checked(
        [EXE] + args,
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )
    if rc != 0:
        fail("benchmark exited with %d" % rc)
    return out


def result_of(out):
    return json.loads(out.strip().splitlines()[-1])


def self_test():
    problems = []
    for workload in WORKLOADS:
        for trace, exact in (("0", EXACT_END_TO_END), ("1", EXACT_PER_LAYER)):
            runs = {}
            for tag, seed in (("a", DEFAULT_SEED), ("b", DEFAULT_SEED), ("c", HELD_OUT_SEED)):
                args = ["--workload", workload, "--seed", str(seed),
                        "--seconds", str(SELF_TEST_SECONDS), "--trace", trace]
                runs[tag] = result_of(run_bench(args, capture=True))
            for tag, res in runs.items():
                if not res["correct"] or res["failed"] != 0:
                    problems.append("%s trace=%s run %s: correct=%s failed=%d"
                                    % (workload, trace, tag, res["correct"], res["failed"]))
            moved = []
            for name in exact:
                a = runs["a"]["metrics"][name]["value"]
                b = runs["b"]["metrics"][name]["value"]
                c = runs["c"]["metrics"][name]["value"]
                status = "repeats" if a == b else "DIFFERS"
                if a != b:
                    problems.append("%s %s: %r then %r on seed %d"
                                    % (workload, name, a, b, DEFAULT_SEED))
                if c != a:
                    moved.append(name)
                print("%-12s %-44s seed %d: %-12.10g %s; seed %d: %.10g"
                      % (workload, name, DEFAULT_SEED, a, status, HELD_OUT_SEED, c))
            if trace == "0" and not moved:
                problems.append("%s: no deterministic metric moved with the seed" % workload)
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv):
    if argv == ["--self-test"]:
        build()
        return self_test()
    build()
    run_bench(argv)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
