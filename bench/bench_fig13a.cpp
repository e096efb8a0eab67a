// Figure 13(A): border-link failure.
//
// One of the eight border links fails while latency-sensitive 5 MiB
// inter-DC flows saturate the WAN cut. Because a single run depends heavily
// on which paths the flows pick, the experiment repeats with distinct seeds
// and prints quartile summaries (the textual form of the paper's violin
// plots). Variants: {spraying, PLB, UnoLB} x {EC, no EC}, all on UnoCC.
// Paper expectation: Uno(UnoLB) beats spraying and PLB with and without EC,
// thanks to adaptive avoidance of the dead link + block-level spreading.
#include <cstdio>

#include "bench/common.hpp"

using namespace uno;

int main() {
  bench::print_header("Figure 13(A)", "one failed border link, 5 MiB WAN flows");
  const std::uint64_t flow_bytes = bench::scaled_bytes(5.0 * (1 << 20));
  const int flows = 16;  // 16 x 5 MiB can saturate the 800G cut
  const int trials = std::max(4, static_cast<int>(30 * bench::scale()));
  const Time horizon = 400 * kMillisecond;

  Table t({"variant", "FCT ms: p25", "p50", "p75", "p99", "max", "mean"});
  for (const SchemeSpec& scheme : bench::rc_schemes()) {
    std::vector<double> fcts_ms;
    for (int trial = 0; trial < trials; ++trial) {
      ExperimentConfig cfg;
      cfg.scheme = scheme;
      cfg.seed = bench::seed() + trial * 1000003;
      Experiment ex(cfg);
      Rng trial_rng = Rng::stream(cfg.seed, 0xFA11);
      // Fail one random border link (data direction) before traffic starts.
      const int dead = static_cast<int>(trial_rng.uniform_below(ex.topo().cross_link_count()));
      ex.topo().cross_port(0, dead).set_up(false);

      const int hpd = ex.topo().hosts_per_dc();
      for (int f = 0; f < flows; ++f) {
        const int src = static_cast<int>(trial_rng.uniform_below(hpd));
        const int dst = hpd + static_cast<int>(trial_rng.uniform_below(hpd));
        ex.spawn({src, dst, flow_bytes, 0, true});
      }
      ex.run_to_completion(horizon);
      // Unfinished flows are charged the horizon — silently dropping them
      // would flatter schemes that strand flows on the dead link.
      for (std::size_t i = 0; i < ex.flows_spawned(); ++i) {
        const FlowSender& snd = ex.sender(i);
        fcts_ms.push_back(to_milliseconds(snd.done() ? snd.fct() : horizon));
      }
    }
    const Distribution d = Distribution::of(fcts_ms);
    t.add_row({scheme.name, Table::fmt(d.p25, 2), Table::fmt(d.p50, 2), Table::fmt(d.p75, 2),
               Table::fmt(d.p99, 2), Table::fmt(d.max, 2), Table::fmt(d.mean, 2)});
  }
  char title[64];
  std::snprintf(title, sizeof(title), "%d trials x %d flows", trials, flows);
  t.print(title);
  return 0;
}
