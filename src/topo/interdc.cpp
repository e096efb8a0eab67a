#include "topo/interdc.hpp"

#include <cassert>

namespace uno {

InterDcTopology::InterDcTopology(EventQueue& eq, const InterDcConfig& cfg)
    : InterDcTopology(std::vector<TopoAtom>{{&eq, nullptr}}, cfg) {}

InterDcTopology::InterDcTopology(const std::vector<TopoAtom>& atoms,
                                 const InterDcConfig& cfg)
    : atoms_(atoms), cfg_(cfg),
      path_store_(*this, cfg.path_mode, cfg.path_quarantine) {
  assert(cfg_.num_dcs >= 2);
  assert(atoms_.size() == 1 || atoms_.size() == static_cast<std::size_t>(cfg_.num_dcs));
  FatTreeConfig ft;
  ft.k = cfg_.k;
  ft.link_rate = cfg_.link_rate;
  ft.host_link_latency = cfg_.host_link_latency;
  ft.fabric_link_latency = cfg_.fabric_link_latency;
  ft.queue = cfg_.queue;
  ft.uplink_queue = cfg_.uplink_queue;
  ft.nic_queue = cfg_.nic_queue;
  for (int d = 0; d < cfg_.num_dcs; ++d)
    dcs_.push_back(std::make_unique<FatTreeDC>(atom_eq(d), d, ft, flows_, atom(d).packets));

  // Border ports draw RED decisions from streams numbered border by border
  // (each core's ->border and border-> ports in turn, then the cross ports
  // peer by peer), whatever order they are stored in.
  const int nd = cfg_.num_dcs;
  const int nc = num_cores_ = dcs_[0]->num_cores();
  const std::uint64_t per_dc = 2ull * nc + static_cast<std::uint64_t>(nd - 1) * cfg_.cross_links;
  auto stream = [&](int d, std::uint64_t i) {
    return Rng::stream(0xB0DE5ULL, 1000000 + d * per_dc + i);
  };
  auto border = [&](int d) { return "dc" + std::to_string(d) + ".border"; };
  for (int d = 0; d < nd; ++d)
    for (int c = 0; c < nc; ++c)
      border_.emplace_back(atom_eq(d), border(d) + ".from_core" + std::to_string(c),
                           cfg_.border_queue, cfg_.fabric_link_latency, stream(d, 2ull * c),
                           atom(d).packets);
  for (int d = 0; d < nd; ++d)
    for (int c = 0; c < nc; ++c)
      border_.emplace_back(atom_eq(d), border(d) + ".to_core" + std::to_string(c),
                           cfg_.border_queue, cfg_.fabric_link_latency,
                           stream(d, 2ull * c + 1), atom(d).packets);
  // A cross port's serializer belongs to the source DC's shard; its wire, a
  // ChannelLink, spans the seam. Channel ids follow this build order.
  std::uint16_t channel_id = 0;
  for (int d = 0; d < nd; ++d) {
    for (int peer = 0; peer < nd; ++peer) {
      if (peer == d) continue;
      const int rank = peer < d ? peer : peer - 1;
      for (int j = 0; j < cfg_.cross_links; ++j) {
        const std::string name =
            border(d) + ".cross" + std::to_string(peer) + "." + std::to_string(j);
        border_.emplace_back(
            atom_eq(d), name, cfg_.border_queue,
            std::make_unique<ChannelLink>(atom_eq(d), atom_eq(peer), name,
                                          cfg_.cross_latency_between(d, peer), channel_id++),
            stream(d, 2ull * nc + static_cast<std::uint64_t>(rank) * cfg_.cross_links + j),
            atom(d).packets);
      }
    }
  }
  assert(border_.size() == cross_index(nd - 1, nd - 2, cfg_.cross_links - 1) + 1);
}

// Route enumeration is a pure function of the ordered pair: the hop
// sequences depend only on (src,dst) and the construction-time RNG stream
// keyed by path_key(src,dst). The PathStore leans on this purity for its
// flyweight sharing — (a,b).forward and (b,a).reverse come from the same
// generate_routes(a,b) call, so they are identical by construction.
void InterDcTopology::generate_routes(int src, int dst,
                                      std::vector<RouteScratch>& out) {
  assert(src != dst);
  const int sd = dc_of(src), dd = dc_of(dst);
  const int s = local_id(src), t = local_id(dst);
  FatTreeDC& S = *dcs_[sd];
  FatTreeDC& D = *dcs_[dd];
  const int r = S.radix();

  auto finish = [&](RouteScratch& route) {
    route.push(&D.host(t));
    out.push_back(route);
  };

  if (sd == dd) {
    const int es = S.edge_index(s), et = S.edge_index(t);
    if (es == et) {
      RouteScratch route;
      route.push(&S.host_up(s));
      route.push(&S.edge_down(et, S.port_of(t)));
      finish(route);
      return;
    }
    if (S.pod_of(s) == S.pod_of(t)) {
      // One path per aggregation switch in the pod.
      for (int a = 0; a < r && static_cast<int>(out.size()) < cfg_.max_paths_intra; ++a) {
        RouteScratch route;
        route.push(&S.host_up(s));
        route.push(&S.edge_up(es, a));
        route.push(&S.agg_down(S.pod_of(t), a, S.edge_of(t)));
        route.push(&S.edge_down(et, S.port_of(t)));
        finish(route);
      }
      return;
    }
    // Cross-pod: one path per (agg slot, core slot).
    for (int a = 0; a < r; ++a) {
      for (int cs = 0; cs < r; ++cs) {
        if (static_cast<int>(out.size()) >= cfg_.max_paths_intra) return;
        const int core = S.core_index(a, cs);
        RouteScratch route;
        route.push(&S.host_up(s));
        route.push(&S.edge_up(es, a));
        route.push(&S.agg_up(S.pod_of(s), a, cs));
        route.push(&S.core_down(core, S.pod_of(t)));
        route.push(&S.agg_down(S.pod_of(t), S.core_group(core), S.edge_of(t)));
        route.push(&S.edge_down(et, S.port_of(t)));
        finish(route);
      }
    }
    return;
  }

  // Inter-DC: sample (agg, core, cross link, remote core) combinations
  // deterministically per (src,dst). The cross link is cycled so the first
  // cfg_.cross_links entropies cover all WAN links — UnoLB relies on the
  // entropy set spanning distinct border links.
  Rng rng = Rng::stream(cfg_.seed, path_key(src, dst));
  const int es = S.edge_index(s), et = D.edge_index(t);
  const int ncores = S.num_cores();
  for (int i = 0; i < cfg_.max_paths_inter; ++i) {
    const int a = static_cast<int>(rng.uniform_below(r));
    const int cs = static_cast<int>(rng.uniform_below(r));
    const int j = i % cfg_.cross_links;
    const int c2 = static_cast<int>(rng.uniform_below(ncores));
    const int core = S.core_index(a, cs);
    RouteScratch route;
    route.push(&S.host_up(s));
    route.push(&S.edge_up(es, a));
    route.push(&S.agg_up(S.pod_of(s), a, cs));
    route.push(&border_[core_border_index(sd, core)]);
    route.push(&border_[cross_index(sd, dd, j)]);
    route.push(&border_[border_core_index(dd, c2)]);
    route.push(&D.core_down(c2, D.pod_of(t)));
    route.push(&D.agg_down(D.pod_of(t), D.core_group(c2), D.edge_of(t)));
    route.push(&D.edge_down(et, D.port_of(t)));
    finish(route);
  }
}

std::vector<Port*> InterDcTopology::all_ports() const {
  std::vector<Port*> out;
  for (const auto& dc : dcs_) {
    auto p = dc->all_ports();
    out.insert(out.end(), p.begin(), p.end());
  }
  for (std::size_t i = 0; i < border_.size(); ++i)
    out.push_back(const_cast<Port*>(&border_[i]));
  return out;
}

std::vector<Port*> InterDcTopology::atom_ports(int d) const {
  std::vector<Port*> out = dcs_[d]->all_ports();
  auto add = [&](std::size_t i) { out.push_back(const_cast<Port*>(&border_[i])); };
  for (int c = 0; c < num_cores_; ++c) add(core_border_index(d, c));
  for (int c = 0; c < num_cores_; ++c) add(border_core_index(d, c));
  for (int peer = 0; peer < cfg_.num_dcs; ++peer)
    for (int j = 0; peer != d && j < cfg_.cross_links; ++j) add(cross_index(d, peer, j));
  return out;
}

std::vector<Port*> InterDcTopology::source_side_ports(int dc) const {
  std::vector<Port*> out = dcs_[dc]->uplink_ports();
  for (int c = 0; c < num_cores_; ++c)
    out.push_back(const_cast<Port*>(&border_[core_border_index(dc, c)]));
  return out;
}

std::vector<ChannelLink*> InterDcTopology::all_channels() const {
  std::vector<ChannelLink*> out;
  for (std::size_t i = cross_index(0, 1, 0); i < border_.size(); ++i)
    out.push_back(border_[i].channel());
  return out;
}

std::uint64_t InterDcTopology::total_drops() const {
  std::uint64_t drops = 0;
  for (const Port* p : all_ports()) drops += p->drops() + p->wire_drops();
  return drops;
}

std::uint64_t InterDcTopology::total_trims() const {
  std::uint64_t trims = 0;
  for (const Port* p : all_ports()) trims += p->trims();
  return trims;
}

}  // namespace uno
