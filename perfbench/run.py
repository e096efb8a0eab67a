#!/usr/bin/env python3
"""End-to-end benchmark of the uno simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ into .bench_build/ (Release)
on first use, then runs repetitions of one workload -- each a fresh process
of the runner binary -- until S seconds have been spent.

--trace 0 reports the end-to-end metrics (medians over the repetitions) from
the untraced runner. --trace 1 alternates the traced runner (span log,
counting allocator, lifecycle micro-phase) with the untraced one and reports
the per-layer metrics plus the tracing overhead. Either way the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}; the
lines above it are the human-readable report. Any failed correctness check
makes the exit code 1. --workload all runs every workload in turn and prefixes
each metric with its workload. perfbench/README.md defines every metric.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
UNTRACED = os.path.join(BUILD, "uno_perfbench")
TRACED = os.path.join(BUILD, "uno_perfbench_traced")

# Workload -> how many simulation seeds a run cycles its repetitions through.
# perm_flap's work depends on the permutation its seed draws (events move
# +-10 % from seed to seed), so a run spreads its repetitions over 8
# permutations derived from --seed, in whole cycles so that every seed
# weighs the same in the median; the work of the other two moves < 1 % with
# the seed.
WORKLOADS = {"gpu_cluster_x2": 1, "rpc_churn": 1, "perm_flap": 8}
MIN_REPS = 3         # untraced repetitions per run, rounded up to whole cycles
MIN_PAIRS = 2        # traced/untraced pairs per --trace 1 run, likewise
REP_TIMEOUT_S = 150  # one repetition; the whole run must end within 180 s

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("flows_completed_frac", "ratio"))

# Per-layer metrics the runner reports directly (medians over traced reps).
RUNNER_LAYER = (
    ("core.spawn_allocs_per_flow", "count"), ("core.spawn_bytes_per_flow", "B"),
    ("core.slab_peak_bytes", "B"), ("core.slab_heap_allocs", "count"),
    ("workload.flows", "count"), ("workload.midrun_spawns", "count"),
    ("sim.events", "count"), ("sim.loop_allocs", "count"),
    ("sim.wheel_inserts", "count"), ("sim.wheel_cascades", "count"),
    ("sim.compactions", "count"), ("sim.stale_dispatches", "count"),
    ("sim.peak_pending", "count"), ("sim.end_us", "us"),
    ("sim.shard.count", "count"), ("sim.shard.sync_rounds", "count"),
    ("sim.shard.crossings", "count"), ("sim.shard.stall_s", "s"),
    ("sim.shard.imbalance", "ratio"), ("sim.shard.cpu_per_wall", "ratio"),
    ("net.forwarded", "count"), ("net.link_delivered", "count"),
    ("net.link_coalesced_frac", "ratio"), ("net.drops", "count"),
    ("net.trims", "count"), ("net.ecn_marked", "count"),
    ("transport.packets_sent", "count"), ("transport.rtx_frac", "ratio"),
    ("transport.nacks", "count"), ("fec.masked", "count"),
    ("topo.pairs_built", "count"), ("topo.routes_built", "count"),
    ("topo.pairs_revived", "count"), ("topo.evictions", "count"),
    ("topo.peak_slab_bytes", "B"), ("faults.actions", "count"),
    ("stats.fct_p99_us", "us"), ("stats.fct_inter_p99_us", "us"),
    ("stats.fct_intra_p99_us", "us"),
)

# Per-layer seconds from the span log, as (metric, span): the span's self time.
SPAN_SECONDS = (
    ("core.ctor_s", "core.ctor"), ("workload.init_s", "workload.init"),
    ("core.spawn_s", "core.spawn"), ("sim.loop_s", "sim.loop"),
    ("stats.result_s", "stats.result"), ("core.teardown_s", "core.teardown"),
    ("bench.setup_self_s", "setup"),
)
# Micro-phase spans, reported in ns per flow.
SPAN_PER_FLOW_NS = (
    ("lb.make_ns", "lb.make"), ("transport.cc_make_ns", "transport.cc_make"),
    ("topo.acquire_ns", "topo.acquire"), ("topo.release_ns", "topo.release"),
)


class BenchError(Exception):
    """A failure that leaves nothing to report."""


def log(msg=""):
    print(msg, flush=True)


def build():
    """Configure (once) and build the runners; quiet unless it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found: run from the repository root")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch inside the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    steps = [] if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) else [configure]
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env).returncode:
                out.flush()
                with open(os.path.join(BUILD, "build.log")) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def rep(binary, workload, seed, extra=()):
    """One repetition in its own process: the runner's JSON plus the
    process's resource usage. Failed checks are returned, not raised."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), *extra]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: never leave the runner behind
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    r = {"seed": seed, "wall_s": time.monotonic() - start,
         "cpu_s": ru.ru_utime + ru.ru_stime,
         "nivcsw": ru.ru_nivcsw,
         "minflt": ru.ru_minflt,
         "peak_rss_mb": ru.ru_maxrss / 1024.0}  # ru_maxrss is KiB on Linux
    try:
        r.update(json.loads(out.decode().strip().splitlines()[-1]))
    except (ValueError, IndexError):
        r["failed_checks"] = [f"runner exited {proc.returncode} without a result: "
                              + err.decode(errors="replace").strip()[-300:]]
        return r
    if proc.returncode != 0:
        r["failed_checks"].append(f"runner exited {proc.returncode}")
    return r


def rep_seed(args, i):
    """Simulation seed of repetition i: a pure function of --seed."""
    cycle = WORKLOADS[args.workload]
    return args.seed * cycle + i % cycle


def more_steps(args, walls, start, minimum):
    """Whether to start another repetition (or traced/untraced pair), given
    the wall seconds of those done so far: until `minimum` are done, and then
    whole seed cycles for as long as the last cycle fits again in --seconds."""
    cycle = WORKLOADS[args.workload]
    if len(walls) < minimum or len(walls) % cycle:
        return True
    return time.monotonic() - start + sum(walls[-cycle:]) <= args.seconds


def check_digests(reps):
    """Every repetition of one workload and seed on one build must produce
    the same digest; a repetition that disagrees with the first of its seed
    fails. Returns the reference digest per seed."""
    ref = {}
    for r in reps:
        if "digest" not in r:
            continue
        ref.setdefault(r["seed"], r["digest"])
        if r["digest"] != ref[r["seed"]]:
            r["failed_checks"].append(f"seed {r['seed']}: digest differs from the first "
                                      f"repetition: {r['digest']}")
    return ref


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Interquartile range as a share of the median (0 with < 2 values)."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def span_times(path):
    """Self time per span name (summed over same-named spans) from a span
    log: a span's duration less the part of it its children cover."""
    with open(path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    self_s, total_s = {}, {}
    for i, s in enumerate(spans):
        covered, edge = 0, s["start_ns"]
        for c in sorted(children[i], key=lambda c: spans[c]["start_ns"]):
            lo, hi = max(edge, spans[c]["start_ns"]), spans[c]["end_ns"]
            if hi > lo:
                covered += hi - lo
                edge = hi
        dur = s["end_ns"] - s["start_ns"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + (dur - covered) * 1e-9
        total_s[s["name"]] = total_s.get(s["name"], 0.0) + dur * 1e-9
    return self_s, total_s


def fingerprint(reps):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f
                          if l.startswith("model name")), model)
    except OSError:
        pass
    build_id = next((r["build"] for r in reps if "build" in r), "unknown")
    return f'machine: cpu="{model}" nproc={os.cpu_count()} build="{build_id}"'


def print_reps(title, reps):
    log(f"{title}:")
    log("  rep  seed   setup_s     run_s       rss_mb   cpu_s    nivcsw  minflt   checks")
    for i, r in enumerate(reps, 1):
        log(f"  {i:3d}  {r['seed']:<5d}  {r.get('setup_s', 0):<10.6f}  {r.get('run_s', 0):<10.6f}  "
            f"{r['peak_rss_mb']:<7.1f}  {r['cpu_s']:<7.3f}  {r['nivcsw']:<6d}  "
            f"{r['minflt']:<7d}  {'; '.join(r['failed_checks']) or 'ok'}")


def print_spread(names_units, values_of, host_reps):
    """Median, quartiles and spread of each metric across repetitions, next
    to the host-noise readings of the same repetitions."""
    log("  metric                   median        q1            q3            "
        "spread  unit")
    for name, unit in names_units:
        v = values_of(name)
        q = statistics.quantiles(v, n=4) if len(v) >= 2 else [median(v)] * 3
        log(f"  {name:<23}  {median(v):<12.6g}  {q[0]:<12.6g}  {q[2]:<12.6g}  "
            f"{spread(v) * 100:5.1f}%  {unit}")
    for key in ("cpu_s", "nivcsw", "minflt"):
        v = [r[key] for r in host_reps]
        log(f"  host.{key:<18}  {median(v):<12.6g}  spread {spread(v) * 100:5.1f}%")


def passed(reps):
    return [r for r in reps if not r["failed_checks"]]


def run_untraced(args):
    reps = []
    start = time.monotonic()
    while more_steps(args, [r["wall_s"] for r in reps], start, MIN_REPS):
        reps.append(rep(UNTRACED, args.workload, rep_seed(args, len(reps))))
    digests = check_digests(reps)
    # Timings come from every repetition that produced a result, so a failed
    # check still shows what the run cost; completions only from passing ones.
    measured = [r for r in reps if "run_s" in r]
    spawned = sum(r.get("flows_spawned", 0) for r in reps)
    completed = sum(r["flows_completed"] for r in passed(reps))
    metrics = {
        "setup_s": median([r["setup_s"] for r in measured]),
        "run_s": median([r["run_s"] for r in measured]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in measured]),
        "flows_completed_frac": completed / spawned if spawned else 0.0,
    }
    print_reps("untraced repetitions", reps)
    log("spread across repetitions:")
    print_spread(END_TO_END[:3], lambda n: [r[n] for r in measured], reps)
    return reps, digests, {name: {"value": metrics[name], "unit": unit}
                           for name, unit in END_TO_END}


def run_traced(args):
    traced, untraced, pair_walls = [], [], []
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    start = time.monotonic()
    while more_steps(args, pair_walls, start, MIN_PAIRS):
        seed = rep_seed(args, len(traced))
        path = os.path.join(spans_dir, f"{args.workload}-seed{seed}-rep{len(traced)}.jsonl")
        t = rep(TRACED, args.workload, seed, ("--spans", path))
        if not t["failed_checks"]:
            t["self_s"], t["total_s"] = span_times(path)
            t["spans"] = path
        traced.append(t)
        untraced.append(rep(UNTRACED, args.workload, seed))
        pair_walls.append(t["wall_s"] + untraced[-1]["wall_s"])
    # The counting allocator must not change what is simulated.
    digests = check_digests(traced + untraced)
    ok_t, ok_u = passed(traced), passed(untraced)

    m = {}
    for name, unit in RUNNER_LAYER:
        m[name] = (median([r[name] for r in ok_t]), unit)
    for name, span in SPAN_SECONDS:
        m[name] = (median([r["self_s"].get(span, 0.0) for r in ok_t]), "s")
    for name, span in SPAN_PER_FLOW_NS:
        m[name] = (median([r["total_s"].get(span, 0.0) * 1e9 / max(1, r["micro_flows"])
                           for r in ok_t]), "ns")
    m["core.spawn_ns_per_flow"] = (median(
        [r["total_s"]["core.spawn"] * 1e9 / max(1, r["flows_initial"]) for r in ok_t]), "ns")
    m["sim.ns_per_event"] = (median(
        [r["total_s"]["sim.loop"] * 1e9 / max(1, r["sim.events"]) for r in ok_t]), "ns")
    for key in ("cpu_s", "nivcsw", "minflt"):
        m["host." + key] = (median([r[key] for r in ok_u]), "s" if key == "cpu_s" else "count")
    m["bench.trace_overhead_s"] = (median([r["run_s"] for r in ok_t])
                                   - median([r["run_s"] for r in ok_u]), "s")

    print_reps("traced repetitions", traced)
    print_reps("untraced repetitions", untraced)
    if ok_t:
        log(f"span log: {ok_t[0]['spans']}")
        log("self time per span (first traced repetition):")
        for name, s in sorted(ok_t[0]["self_s"].items(), key=lambda kv: -kv[1]):
            log(f"  {name:<20} {s:.6f} s")
    log("per-layer metrics (median over traced repetitions):")
    for name, (value, unit) in m.items():
        log(f"  {name:<28} {value:.6g} {unit}")
    return traced + untraced, digests, {name: {"value": v, "unit": u}
                                        for name, (v, u) in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all of them in turn (--seconds each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through rep()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reps, metrics = [], {}
    try:
        build()
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            log(f"perfbench: workload={name} seed={args.seed} "
                f"seconds={args.seconds:g} trace={args.trace}")
            got, digests, got_metrics = (run_traced if args.trace else run_untraced)(one)
            for seed, digest in digests.items():
                log(f"digest seed {seed}: {digest}")
            reps += got
            prefix = name + "." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got_metrics.items()})
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    failed = [r for r in reps if r["failed_checks"]]
    log(fingerprint(reps))
    if len(names) > 1:
        log("summary:")
        for name, m in metrics.items():
            log(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(reps), "failed": len(failed),
                      "metrics": metrics}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
