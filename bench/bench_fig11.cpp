// Figure 11: FCT slowdown versus the inter/intra RTT ratio.
//
// The realistic 40%-load mix is repeated while the inter-DC propagation
// delay grows so that inter-RTT/intra-RTT covers {8, 32, 128, 512}
// (intra RTT fixed at 14 us). Reported: mean and p99 FCT *slowdown*
// (FCT / unloaded ideal at that RTT). Paper expectation: MPRDMA+BBR edges
// out Uno at tiny ratios (phantom-queue headroom tax), but as the gap
// approaches real WAN ratios Uno wins by growing factors.
#include <cstdio>
#include <iterator>

#include "bench/common.hpp"
#include "workload/cdf.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 11", "slowdown vs inter/intra RTT ratio, 40% load");
  const double size_scale = 1.0 / 32.0;
  const EmpiricalCdf intra_sizes = EmpiricalCdf::websearch().scaled(size_scale * bench::scale());
  const EmpiricalCdf inter_sizes = EmpiricalCdf::alibaba_wan().scaled(size_scale * bench::scale());
  const Time duration = bench::scaled_time(4 * kMillisecond);
  const int active_hosts = 64;

  const SchemeSpec schemes[] = {SchemeSpec::uno(), SchemeSpec::gemini(),
                                SchemeSpec::mprdma_bbr()};
  const int ratios[] = {8, 32, 128, 512};
  constexpr std::size_t kSchemes = std::size(schemes);

  // Every (ratio, scheme) cell is an independent simulation, so the grid
  // runs through parallel_map (UNO_BENCH_JOBS workers); results come back
  // in submission order, keeping the printed tables byte-identical to a
  // sequential run.
  struct Cell {
    std::string scheme;
    FctSummary all, inter;
    bool done = false;
  };
  const auto cells = parallel_map(
      bench::jobs(), std::size(ratios) * kSchemes, [&](std::size_t idx) {
        const int ratio = ratios[idx / kSchemes];
        const SchemeSpec& scheme = schemes[idx % kSchemes];
        const Time inter_rtt = ratio * 14 * kMicrosecond;
        ExperimentConfig cfg;
        cfg.scheme = scheme;
        cfg.seed = bench::seed();
        cfg.uno.inter_rtt = inter_rtt;
        Experiment ex(cfg);
        PoissonConfig pc;
        pc.load = 0.4;
        pc.duration = duration;
        pc.active_hosts = active_hosts;
        pc.seed = bench::seed();
        auto specs = make_poisson_mixed(bench::hosts_of(ex), intra_sizes, inter_sizes, pc);
        ex.spawn_all(specs);
        Cell c;
        c.scheme = scheme.name;
        c.done = ex.run_to_completion(kSecond + 4 * inter_rtt * 100);
        const ExperimentResult res = ex.result();
        c.all = res.fct_all;
        c.inter = res.fct_inter;
        return c;
      });

  for (std::size_t r = 0; r < std::size(ratios); ++r) {
    Table t({"scheme", "mean slowdown", "p99 slowdown", "inter p99 slowdown", "done"});
    for (std::size_t s = 0; s < kSchemes; ++s) {
      const Cell& c = cells[r * kSchemes + s];
      t.add_row({c.scheme, Table::fmt(c.all.mean_slowdown, 2),
                 Table::fmt(c.all.p99_slowdown, 2), Table::fmt(c.inter.p99_slowdown, 2),
                 c.done ? "yes" : "no"});
    }
    char title[64];
    std::snprintf(title, sizeof(title), "inter/intra RTT ratio = %d (inter RTT %.2f ms)",
                  ratios[r], to_milliseconds(ratios[r] * 14 * kMicrosecond));
    t.print(title);
  }
  return 0;
}
