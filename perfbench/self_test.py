#!/usr/bin/env python3
"""Self-test of the benchmark, at reduced sizes (about a minute after the
build). Run from the repository root:

    python3 perfbench/self_test.py

Checks, none against a stored golden:
  1. gpu_cluster_x2 gives the same digest at --shards 1 and --shards 2, and
     each run reports the shard count it asked for;
  2. on every workload the traced runner (counting allocator, micro-phase)
     simulates exactly what the untraced runner does;
  3. run.py exits non-zero, without printing a result, in a directory that
     holds only BENCHMARK.json and perfbench/.
"""

import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

SEEDS = (1, 7)


def small(binary, workload, seed, *extra):
    r = run.rep(binary, workload, seed, ("--small", *extra))
    if r["failed_checks"]:
        raise AssertionError(f"{workload} seed {seed}: {'; '.join(r['failed_checks'])}")
    return r


def shard_identity():
    for seed in SEEDS:
        one = small(run.UNTRACED, "gpu_cluster_x2", seed, "--shards", "1")
        two = small(run.UNTRACED, "gpu_cluster_x2", seed, "--shards", "2")
        assert (one["sim.shard.count"], two["sim.shard.count"]) == (1, 2), "shard counts"
        assert one["workload.midrun_spawns"] > 0, "gpu_cluster_x2 must spawn mid-run"
        assert one["digest"] == two["digest"], \
            f"seed {seed}: shards 1 {one['digest']} != shards 2 {two['digest']}"


def traced_matches_untraced():
    for workload in run.WORKLOADS:
        plain = small(run.UNTRACED, workload, SEEDS[0])
        traced = small(run.TRACED, workload, SEEDS[0])
        assert plain["digest"] == traced["digest"], f"{workload}: traced digest differs"
        assert traced["allocs_counted"] and not plain["allocs_counted"], \
            f"{workload}: only the traced runner may count allocations"
        assert traced["micro_flows"] == traced["flows_spawned"] and plain["micro_flows"] == 0, \
            f"{workload}: only the traced runner runs the micro-phase"


def fails_without_sources():
    bare = os.path.join(run.BUILD, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "perm_flap",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert p.returncode != 0, "run.py must fail without the simulator sources"
    assert '"correct"' not in p.stdout, "run.py must not print a result without sources"


def main():
    run.build()
    for test in (shard_identity, traced_matches_untraced, fails_without_sources):
        try:
            test()
        except AssertionError as e:
            print(f"FAIL {test.__name__}: {e}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
