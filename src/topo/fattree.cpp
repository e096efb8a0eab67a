#include "topo/fattree.hpp"

#include <cassert>

namespace uno {

FatTreeDC::FatTreeDC(EventQueue& eq, int dc_id, const FatTreeConfig& cfg, FlowTable& flows,
                     SlabPool* packets)
    : cfg_(cfg) {
  assert(cfg_.k % 2 == 0 && cfg_.k >= 2);
  const int r = radix();
  const int nh = num_hosts();
  const int nedges = cfg_.k * r;  // global edge count (= aggregation count)
  const int ncores = num_cores();
  const std::string dc = "dc" + std::to_string(dc_id);

  // Each port draws RED decisions from its own RNG stream. Stream numbers
  // follow the switch-by-switch order (a host's uplink; each edge's down
  // then up ports; each aggregation switch's; each core's), whatever order
  // the ports are stored in.
  const std::uint64_t seed = 0x51EEDULL + static_cast<std::uint64_t>(dc_id);
  const std::uint64_t edge_base = static_cast<std::uint64_t>(nh);
  const std::uint64_t agg_base = edge_base + 2ull * nedges * r;
  const std::uint64_t core_base = agg_base + 2ull * nedges * r;
  auto add = [&](const std::string& name, Time latency, const QueueConfig& qcfg,
                 std::uint64_t stream) {
    ports_.emplace_back(eq, name, qcfg, latency, Rng::stream(seed, stream), packets);
  };

  for (int h = 0; h < nh; ++h) {
    hosts_.emplace_back(h, dc_id, dc + ".h" + std::to_string(h), flows);
    add(dc + ".h" + std::to_string(h) + ".up", cfg_.host_link_latency, cfg_.nic_queue, h);
  }
  for (int e = 0; e < nedges; ++e)
    for (int port = 0; port < r; ++port)
      add(dc + ".e" + std::to_string(e) + ".down" + std::to_string(port),
          cfg_.host_link_latency, cfg_.queue, edge_base + 2ull * e * r + port);
  for (int e = 0; e < nedges; ++e)
    for (int a = 0; a < r; ++a)
      add(dc + ".e" + std::to_string(e) + ".up" + std::to_string(a), cfg_.fabric_link_latency,
          cfg_.uplink_queue, edge_base + 2ull * e * r + r + a);
  auto agg_name = [&](int idx) {
    return dc + ".p" + std::to_string(idx / r) + ".a" + std::to_string(idx % r);
  };
  for (int idx = 0; idx < nedges; ++idx)
    for (int e = 0; e < r; ++e)
      add(agg_name(idx) + ".down" + std::to_string(e), cfg_.fabric_link_latency, cfg_.queue,
          agg_base + 2ull * idx * r + e);
  for (int idx = 0; idx < nedges; ++idx)
    for (int cs = 0; cs < r; ++cs)
      add(agg_name(idx) + ".up" + std::to_string(cs), cfg_.fabric_link_latency,
          cfg_.uplink_queue, agg_base + 2ull * idx * r + r + cs);
  for (int c = 0; c < ncores; ++c)
    for (int pod = 0; pod < cfg_.k; ++pod)
      add(dc + ".c" + std::to_string(c) + ".down" + std::to_string(pod),
          cfg_.fabric_link_latency, cfg_.queue,
          core_base + static_cast<std::uint64_t>(c) * cfg_.k + pod);
  assert(ports_.size() == static_cast<std::size_t>(kKinds) * nh);
}

std::vector<Port*> FatTreeDC::all_ports() const {
  std::vector<Port*> out;
  out.reserve(ports_.size());
  for (std::size_t i = 0; i < ports_.size(); ++i)
    out.push_back(const_cast<Port*>(&ports_[i]));
  return out;
}

std::vector<Port*> FatTreeDC::uplink_ports() const {
  std::vector<Port*> out;
  for (Kind kind : {kEdgeUp, kAggUp})
    for (std::size_t i = group(kind); i < group(kind) + num_hosts(); ++i)
      out.push_back(const_cast<Port*>(&ports_[i]));
  return out;
}

}  // namespace uno
