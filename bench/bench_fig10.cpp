// Figure 10: realistic mixed workload across network loads.
//
// Intra-DC flows drawn from the Google web-search distribution, inter-DC
// flows from Alibaba's regional-WAN distribution (4:1 byte split), Poisson
// arrivals at 20/40/60/80% load. Reported per scheme and load: mean and
// p99 FCT, split intra/inter. Sizes are scaled down (DESIGN.md §5) so the
// sweep finishes in minutes; shapes and orderings are the reproduction
// target, not absolute microseconds.
#include <cstdio>

#include "bench/common.hpp"
#include "workload/cdf.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 10", "web-search + Alibaba WAN mix, load sweep");
  const double size_scale = 1.0 / 32.0;
  const EmpiricalCdf intra_sizes = EmpiricalCdf::websearch().scaled(size_scale * bench::scale());
  const EmpiricalCdf inter_sizes = EmpiricalCdf::alibaba_wan().scaled(size_scale * bench::scale());
  const Time duration = bench::scaled_time(5 * kMillisecond);
  const Time horizon = kSecond;
  const int active_hosts = 64;

  for (const double load : {0.2, 0.4, 0.6, 0.8}) {
    Table t({"scheme", "intra mean us", "intra p99 us", "inter mean us", "inter p99 us",
             "flows", "done"});
    for (const SchemeSpec& scheme : bench::cc_schemes()) {
      ExperimentConfig cfg;
      cfg.scheme = scheme;
      cfg.seed = bench::seed();
      Experiment ex(cfg);
      PoissonConfig pc;
      pc.load = load;
      pc.duration = duration;
      pc.active_hosts = active_hosts;
      pc.seed = bench::seed();
      auto specs = make_poisson_mixed(bench::hosts_of(ex), intra_sizes, inter_sizes, pc);
      ex.spawn_all(specs);
      const bool done = ex.run_to_completion(horizon);
      const ExperimentResult res = ex.result();
      {
        char name[160];
        std::snprintf(name, sizeof(name), "fig10_fcts_%s_load%.0f.csv",
                      scheme.name.c_str(), load * 100);
        bench::recorder().flow_results(name, res.flows);
      }
      const FctSummary& intra = res.fct_intra;
      const FctSummary& inter = res.fct_inter;
      t.add_row({scheme.name, Table::fmt(intra.mean_us, 1), Table::fmt(intra.p99_us, 1),
                 Table::fmt(inter.mean_us, 1), Table::fmt(inter.p99_us, 1),
                 std::to_string(specs.size()), done ? "yes" : "no"});
    }
    char title[64];
    std::snprintf(title, sizeof(title), "load = %.0f%%", load * 100);
    t.print(title);
  }
  return 0;
}
