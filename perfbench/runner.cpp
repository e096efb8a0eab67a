// One repetition of one benchmark workload, in its own process, through the
// public Experiment + ScenarioRegistry + ScenarioHarness path that
// `uno_sim --scenario` takes.
//
//   uno_perfbench --workload NAME --seed N [--shards N] [--small] [--spans FILE]
//
// Prints one JSON object on stdout: the end-to-end timings, the run's
// digest, the correctness checks that failed (none on a good run), and the
// counters the per-layer metrics derive from. --spans writes the span log
// (name, start, end, parent) when the run ends. The traced build
// (PERFBENCH_TRACED) also counts allocations and runs the lifecycle
// micro-phase after teardown. --shards and --small exist for the self-test
// (shard-count digest identity at a reduced size). perfbench/run.py drives
// this binary; perfbench/README.md defines every metric.

#include <stdlib.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/build_info.hpp"
#include "core/experiment.hpp"
#include "core/scheme.hpp"
#include "farm/json.hpp"
#include "faults/plan.hpp"
#include "workload/scenario.hpp"

#ifdef PERFBENCH_TRACED
// Counting global allocator, linked into the traced runner only. Every
// replaceable form is defined so that allocation and release always pair
// malloc/posix_memalign with free.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  void* p = nullptr;
  return posix_memalign(&p, align, n) == 0 ? p : nullptr;
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif

namespace {

using namespace uno;

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

struct Allocs {
  std::uint64_t count = 0, bytes = 0;
};

Allocs allocs_now() {
#ifdef PERFBENCH_TRACED
  return {g_allocs.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
#else
  return {};
#endif
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// In-memory span log: name, start, end and parent of every timed call,
/// written out once the run is over.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(4096); }  // no allocation inside timed spans

  int open(const char* name) {
    spans_.push_back({name, now_ns(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  /// Ends span `id` and returns its duration in seconds.
  double close(int id) {
    Span& s = spans_[id];
    s.end_ns = now_ns();
    current_ = s.parent;
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  template <class F>
  double time(const char* name, F&& f) {
    const int id = open(name);
    f();
    return close(id);
  }

  /// One JSON object per line: {"name", "start_ns", "end_ns", "parent"}.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"name\": \"%s\", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                   ", \"parent\": %d}\n",
                   s.name, s.start_ns, s.end_ns, s.parent);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns, end_ns;
    int parent;
  };
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Flat JSON object builder for the one result line.
class JsonLine {
 public:
  void num(const char* key, double v) { add(key, json_number(v)); }
  void u64(const char* key, std::uint64_t v) { add(key, std::to_string(v)); }
  void str(const char* key, const std::string& v) { add(key, json_quote(v)); }
  void boolean(const char* key, bool v) { add(key, v ? "true" : "false"); }
  void list(const char* key, const std::vector<std::string>& items) {
    std::string v = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
      v += (i ? ", " : "") + json_quote(items[i]);
    add(key, v + "]");
  }
  std::string text() const { return out_ + "}"; }

 private:
  void add(const char* key, const std::string& value) {
    out_ += (out_.size() > 1 ? ", " : "") + json_quote(key) + ": " + value;
  }
  std::string out_ = "{";
};

struct Workload {
  const char* name;
  const char* scenario;
  const char* opts;        // --scenario-opt grammar
  const char* small_opts;  // reduced size for the self-test
  int k, small_k;          // fat-tree arity per DC
  int shards;              // requested --shards
  int expect_shards;       // effective shard count the run must report
  const char* fault;       // FaultPlan grammar, "" = fault-free
};

// Why these three: perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"gpu_cluster_x2", "gpu_cluster", "iterations=6", "iterations=2", 16, 8, 2, 2, ""},
    {"rpc_churn", "rpc_churn", "active-hosts=64,duration-ms=5",
     "active-hosts=64,duration-ms=0.5", 8, 8, 1, 1, ""},
    // The fault plan pins the run to one shard (Experiment::resolve_shards).
    {"perm_flap", "permutation", "size-mb=2", "size-mb=0.5", 8, 8, 2, 1,
     "100us flap border:* period=200us duty=0.5 until=5ms"},
};

constexpr Time kDeadline = 1000 * kMillisecond;  // uno_sim's default

struct Args {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  int shards = 0;  // 0 = the workload's own
  bool small = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--small") {
      a->small = true;
    } else if (flag == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads)
        if (name == w.name) a->w = &w;
      if (a->w == nullptr) {
        *err = "unknown workload: " + name;
        return false;
      }
    } else if (flag == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--shards" && has_value) {
      a->shards = std::atoi(argv[++i]);
      if (a->shards < 1) {
        *err = "--shards must be >= 1";
        return false;
      }
    } else if (flag == "--spans" && has_value) {
      a->spans = argv[++i];
    } else {
      *err = "bad argument: " + flag;
      return false;
    }
  }
  if (a->w == nullptr) *err = "--workload is required";
  return a->w != nullptr;
}

/// The lifecycle micro-phase: on a fresh Experiment, time the public calls a
/// spawn makes — path acquire, make_cc, make_lb, path release — over the
/// run's own flows, in blocks so that at most one block of CC/LB objects is
/// alive at a time. Parameter derivation and destruction are not timed.
void micro_phase(const ExperimentConfig& cfg, const std::vector<FlowSpec>& specs,
                 SpanLog& log) {
  const int micro = log.open("micro");
  Experiment fresh(cfg);
  constexpr std::size_t kBlock = 4096;
  std::vector<FlowParams> fp;
  std::vector<CcParams> cp;
  std::vector<const PathSet*> paths;
  std::vector<std::unique_ptr<CongestionControl>> ccs;
  std::vector<std::unique_ptr<LoadBalancer>> lbs;
  fp.reserve(kBlock), cp.reserve(kBlock), paths.reserve(kBlock);
  ccs.reserve(kBlock), lbs.reserve(kBlock);
  for (std::size_t b = 0; b < specs.size(); b += kBlock) {
    const std::size_t n = std::min(kBlock, specs.size() - b);
    const FlowSpec* s = specs.data() + b;
    fp.clear(), cp.clear(), paths.clear(), ccs.clear(), lbs.clear();
    for (std::size_t i = 0; i < n; ++i) {
      fp.push_back(fresh.flow_params(s[i]));
      cp.push_back(fresh.cc_params(s[i]));
    }
    log.time("topo.acquire", [&] {
      for (std::size_t i = 0; i < n; ++i)
        paths.push_back(&fresh.topo().acquire_paths(s[i].src, s[i].dst, 0));
    });
    log.time("transport.cc_make", [&] {
      for (std::size_t i = 0; i < n; ++i)
        ccs.push_back(make_cc(s[i].interdc ? cfg.scheme.cc_inter : cfg.scheme.cc_intra,
                              cp[i], cfg.uno));
    });
    log.time("lb.make", [&] {
      for (std::size_t i = 0; i < n; ++i)
        lbs.push_back(make_lb(s[i].interdc ? cfg.scheme.lb_inter : cfg.scheme.lb_intra,
                              b + i + 1, static_cast<std::uint16_t>(paths[i]->size()),
                              fp[i].base_rtt, cfg.uno, cfg.seed));
    });
    log.time("topo.release", [&] {
      for (std::size_t i = 0; i < n; ++i) fresh.topo().release_paths(s[i].src, s[i].dst, 0);
    });
  }
  log.close(micro);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string err;
  if (!parse_args(argc, argv, &args, &err)) {
    std::fprintf(stderr, "uno_perfbench: %s\n", err.c_str());
    return 2;
  }
  const Workload& w = *args.w;

  ExperimentConfig cfg;
  cfg.scheme = SchemeSpec::uno();
  cfg.seed = args.seed;
  cfg.uno.fattree_k = args.small ? w.small_k : w.k;
  cfg.shards = args.shards > 0 ? args.shards : w.shards;
  if (*w.fault != '\0' && !FaultPlan::parse(w.fault, &cfg.faults, &err)) {
    std::fprintf(stderr, "uno_perfbench: bad fault plan: %s\n", err.c_str());
    return 2;
  }
  std::vector<ScenarioOption> kvs;
  if (!parse_scenario_opts(args.small ? w.small_opts : w.opts, &kvs, &err)) {
    std::fprintf(stderr, "uno_perfbench: bad scenario options: %s\n", err.c_str());
    return 2;
  }
  const int expect_shards =
      args.shards > 0 ? std::min(args.shards, w.expect_shards) : w.expect_shards;

  SpanLog log;
  std::optional<Experiment> ex;
  std::unique_ptr<Scenario> sc;
  std::optional<ScenarioHarness> harness;
  bool init_ok = false;

  // Set-up: Experiment construction to the first simulated event.
  const int setup = log.open("setup");
  log.time("core.ctor", [&] { ex.emplace(cfg); });
  log.time("workload.init", [&] {
    sc = ScenarioRegistry::instance().create(w.scenario);
    const ScenarioEnv env{HostSpace{ex->topo().hosts_per_dc(), ex->topo().num_dcs()},
                          cfg.seed, cfg.uno.link_rate, false};
    init_ok = sc != nullptr && sc->set_options(kvs, &err) && sc->init(env, &err);
  });
  if (!init_ok) {
    std::fprintf(stderr, "uno_perfbench: scenario %s: %s\n", w.scenario, err.c_str());
    return 2;
  }
  harness.emplace(*ex, *sc);
  const Allocs spawn0 = allocs_now();
  log.time("core.spawn", [&] { harness->begin(); });
  const Allocs spawn1 = allocs_now();
  const double setup_s = log.close(setup);
  const std::size_t flows_initial = ex->flows_spawned();
  const std::size_t faults_unmatched =
      ex->fault_injector() ? ex->fault_injector()->unmatched().size() : 0;

  // Run: the harness's first step until result() has returned and the
  // Experiment is destroyed, less the benchmark's own audit.
  bool done = false;
  std::uint64_t bytes_spawned = 0, bytes_delivered = 0;
  std::vector<FlowSpec> specs;
  ExperimentResult r;
  int shards = 0;
  const int run = log.open("run");
  const double cpu0 = process_cpu_s();
  const double loop_s = log.time("sim.loop", [&] { done = harness->run(kDeadline); });
  const double loop_cpu_s = process_cpu_s() - cpu0;
  const Allocs loop1 = allocs_now();
  // The delivery audit reads what each sender had acknowledged. A block
  // completes once as many of its shards are acked as it has data shards, and
  // its data shards are its smallest, so a flow whose every block is
  // decodable has acked at least its size; one completed short of a shard
  // has not.
  const double audit_s = log.time("bench.audit", [&] {
    if (kTraced) specs.reserve(ex->flows_spawned());
    for (std::size_t i = 0; i < ex->flows_spawned(); ++i) {
      FlowSender& s = ex->sender(i);
      const FlowParams& p = s.params();
      bytes_spawned += p.size_bytes;
      if (s.done()) bytes_delivered += std::min(s.acked_bytes(), p.size_bytes);
      if (kTraced) specs.push_back({p.src, p.dst, p.size_bytes, p.start_time, p.interdc});
    }
    shards = ex->shards();
  });
  log.time("stats.result", [&] { r = ex->result(); });
  log.time("core.teardown", [&] {
    harness.reset();
    ex.reset();
    sc.reset();
  });
  const double run_s = log.close(run) - audit_s;

  if (kTraced) micro_phase(cfg, specs, log);
  if (!args.spans.empty() && !log.write(args.spans)) {
    std::fprintf(stderr, "uno_perfbench: cannot write %s\n", args.spans.c_str());
    return 2;
  }

  // The digest uno_sim --digest prints: order-sensitive over the canonical
  // FCT record, so it is identical across --shards for a deterministic run.
  std::uint64_t fct_sum = 0, hash = 1469598103934665603ull;
  for (const FlowResult& f : r.flows) {
    fct_sum += static_cast<std::uint64_t>(f.completion_time);
    hash = (hash ^ f.id) * 1315423911ull;
    hash = (hash ^ static_cast<std::uint64_t>(f.completion_time)) * 1315423911ull;
  }
  const MetricRegistry& m = r.metrics;

  std::vector<std::string> failed;
  if (!done) failed.push_back("run did not finish before the deadline");
  if (r.flows_completed != r.flows_spawned || r.flows.size() != r.flows_completed)
    failed.push_back("completed " + std::to_string(r.flows_completed) + " of " +
                     std::to_string(r.flows_spawned) + " flows");
  if (bytes_delivered != bytes_spawned)
    failed.push_back("bytes delivered " + std::to_string(bytes_delivered) +
                     " != bytes spawned " + std::to_string(bytes_spawned));
  if (shards != expect_shards)
    failed.push_back("effective shards " + std::to_string(shards) + " != declared " +
                     std::to_string(expect_shards));
  if (faults_unmatched != 0) failed.push_back("fault target matched nothing");

  std::uint64_t shard_max = 0, shard_sum = 0;
  for (int s = 0; s < shards && shards > 1; ++s) {
    const std::uint64_t e = m.counter("sim.shard.events." + std::to_string(s));
    shard_max = std::max(shard_max, e);
    shard_sum += e;
  }
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double pkts = static_cast<double>(m.counter("flows.packets_sent"));
  const double delivered = static_cast<double>(m.counter("fabric.link.delivered"));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash);

  JsonLine j;
  j.str("workload", w.name);
  j.u64("seed", args.seed);
  j.str("build", build_info_string());
  j.list("failed_checks", failed);
  j.num("setup_s", setup_s);
  j.num("run_s", run_s);
  j.str("digest", "flows=" + std::to_string(r.flows.size()) +
                      " events=" + std::to_string(r.events_dispatched) +
                      " sim_end=" + std::to_string(r.sim_time) +
                      " fct_sum=" + std::to_string(fct_sum) + " fct_hash=" + hex);
  j.u64("flows_spawned", r.flows_spawned);
  j.u64("flows_completed", r.flows_completed);
  j.u64("flows_initial", flows_initial);
  j.u64("micro_flows", specs.size());
  j.boolean("allocs_counted", allocs_now().count != 0);

  j.u64("core.slab_peak_bytes", m.counter("mem.flow.slab_peak_bytes"));
  j.u64("core.slab_heap_allocs", m.counter("mem.flow.slab_heap_allocs"));
  j.num("core.spawn_allocs_per_flow",
        per(static_cast<double>(spawn1.count - spawn0.count), flows_initial));
  j.num("core.spawn_bytes_per_flow",
        per(static_cast<double>(spawn1.bytes - spawn0.bytes), flows_initial));
  j.u64("workload.flows", r.flows_spawned);
  j.u64("workload.midrun_spawns", r.flows_spawned - flows_initial);
  j.u64("sim.events", r.events_dispatched);
  j.u64("sim.loop_allocs", loop1.count - spawn1.count);
  j.u64("sim.wheel_inserts", m.counter("sim.wheel.inserts"));
  j.u64("sim.wheel_cascades", m.counter("sim.wheel.cascades"));
  j.u64("sim.compactions", m.counter("sim.compactions"));
  j.u64("sim.stale_dispatches", m.counter("sim.stale.dispatches"));
  j.u64("sim.peak_pending", m.counter("sim.peak_pending"));
  j.num("sim.end_us", to_microseconds(r.sim_time));
  j.u64("sim.shard.count", static_cast<std::uint64_t>(shards));
  j.u64("sim.shard.sync_rounds", m.counter("sim.shard.sync_rounds"));
  j.u64("sim.shard.crossings", m.counter("sim.shard.crossings"));
  j.num("sim.shard.stall_s", m.gauge("sim.shard.stall_ms") * 1e-3);
  j.num("sim.shard.imbalance",
        shards > 1 ? per(static_cast<double>(shard_max) * shards, shard_sum) : 1.0);
  j.num("sim.shard.cpu_per_wall", per(loop_cpu_s, loop_s));
  j.u64("net.forwarded", m.counter("fabric.forwarded"));
  j.u64("net.link_delivered", m.counter("fabric.link.delivered"));
  j.num("net.link_coalesced_frac",
        per(static_cast<double>(m.counter("fabric.link.coalesced_deliveries")), delivered));
  j.u64("net.drops", r.fabric_drops);
  j.u64("net.trims", r.fabric_trims);
  j.u64("net.ecn_marked", m.counter("fabric.ecn_marked"));
  j.u64("transport.packets_sent", m.counter("flows.packets_sent"));
  j.num("transport.rtx_frac", per(static_cast<double>(m.counter("flows.retransmits")), pkts));
  j.u64("transport.nacks", m.counter("flows.nacks"));
  j.u64("fec.masked", m.counter("flows.fec_masked"));
  j.u64("topo.pairs_built", m.counter("topo.paths.pairs_built"));
  j.u64("topo.routes_built", m.counter("topo.paths.routes_built"));
  j.u64("topo.pairs_revived", m.counter("topo.paths.pairs_revived"));
  j.u64("topo.evictions", m.counter("topo.paths.evictions"));
  j.u64("topo.peak_slab_bytes", m.counter("topo.paths.peak_slab_bytes"));
  j.u64("faults.actions", m.counter("faults.actions"));
  j.num("stats.fct_p99_us", r.fct_all.p99_us);
  j.num("stats.fct_inter_p99_us", r.fct_inter.p99_us);
  j.num("stats.fct_intra_p99_us", r.fct_intra.p99_us);
  std::printf("%s\n", j.text().c_str());
  return 0;
}
