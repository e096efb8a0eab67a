// Figure 9: permutation workload under two inter-DC provisioning levels.
//
// Every host sends one flow to a random distinct peer across both DCs. With
// eight border links the WAN cut (800 Gbps) is heavily oversubscribed by
// the ~half of flows that cross it; the second configuration provisions the
// cut fully. Schemes: Uno+ECMP, Uno (UnoCC+UnoRC incl. UnoLB), Gemini,
// MPRDMA+BBR. Paper expectation: Uno beats the alternatives under the same
// ECMP assumption and gains further with UnoLB; FCTs are higher with fewer
// border links.
#include <cstdio>

#include "bench/common.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 9", "permutation traffic, 800G vs provisioned WAN cut");
  const std::uint64_t flow_bytes = bench::scaled_bytes(8.0 * (1 << 20));
  const Time horizon = 800 * kMillisecond;

  struct Provisioning {
    const char* name;
    int cross_links;
  };
  const Provisioning provs[] = {{"8 border links (800G)", 8},
                                {"provisioned (64 links)", 64}};

  for (const Provisioning& prov : provs) {
    Table t({"scheme", "intra mean ms", "intra p99 ms", "inter mean ms", "inter p99 ms",
             "all done"});
    for (const SchemeSpec& scheme : bench::cc_schemes()) {
      ExperimentConfig cfg;
      cfg.scheme = scheme;
      cfg.seed = bench::seed();
      cfg.uno.cross_links = prov.cross_links;
      Experiment ex(cfg);
      auto specs = make_permutation(bench::hosts_of(ex), flow_bytes, bench::seed());
      ex.spawn_all(specs);
      const bool done = ex.run_to_completion(horizon);
      const ExperimentResult res = ex.result();
      const FctSummary& intra = res.fct_intra;
      const FctSummary& inter = res.fct_inter;
      t.add_row({scheme.name, Table::fmt(intra.mean_us / 1000, 2),
                 Table::fmt(intra.p99_us / 1000, 2), Table::fmt(inter.mean_us / 1000, 2),
                 Table::fmt(inter.p99_us / 1000, 2), done ? "yes" : "no"});
    }
    t.print(prov.name);
  }
  return 0;
}
