// k-ary fat-tree datacenter fabric (Al-Fares et al.), as simulated in the
// paper: k pods of k/2 edge + k/2 aggregation switches, (k/2)^2 cores,
// k/2 hosts per edge switch. Every directed device-to-device adjacency is
// one `Port` (output queue + the wire behind it); routes are sequences of
// ports assembled by `InterDcTopology`.
#pragma once

#include <string>
#include <vector>

#include "core/slab.hpp"
#include "net/host.hpp"
#include "net/port.hpp"
#include "sim/event.hpp"

namespace uno {

struct FatTreeConfig {
  int k = 8;                              // arity (even)
  Bandwidth link_rate = 100 * kGbps;      // all fabric links
  Time host_link_latency = 500;           // ps units below; see interdc.cpp
  Time fabric_link_latency = 1 * kMicrosecond;
  QueueConfig queue;         // template for every fabric port
  QueueConfig uplink_queue;  // edge->agg and agg->core ports (oversubscription, QCN)
  QueueConfig nic_queue;     // host TX port: deep (software backpressure)
};

/// One datacenter's worth of switches, ports, and hosts. Pure structure:
/// path assembly lives in InterDcTopology.
class FatTreeDC {
 public:
  /// Every port parks its packets in `packets` (the heap when null); every
  /// host demultiplexes through `flows`. Both must outlive the DC.
  FatTreeDC(EventQueue& eq, int dc_id, const FatTreeConfig& cfg, FlowTable& flows,
            SlabPool* packets = nullptr);
  FatTreeDC(const FatTreeDC&) = delete;
  FatTreeDC& operator=(const FatTreeDC&) = delete;

  int k() const { return cfg_.k; }
  int radix() const { return cfg_.k / 2; }
  int num_hosts() const { return cfg_.k * cfg_.k * cfg_.k / 4; }
  int num_pods() const { return cfg_.k; }
  int num_cores() const { return radix() * radix(); }
  int edges_per_pod() const { return radix(); }
  int hosts_per_edge() const { return radix(); }
  int hosts_per_pod() const { return radix() * radix(); }

  // --- host-id decomposition ------------------------------------------------
  int pod_of(int host) const { return host / hosts_per_pod(); }
  int edge_of(int host) const { return (host % hosts_per_pod()) / hosts_per_edge(); }
  int port_of(int host) const { return host % hosts_per_edge(); }
  /// Global edge-switch index for a host.
  int edge_index(int host) const { return pod_of(host) * edges_per_pod() + edge_of(host); }
  /// The aggregation-group index a core belongs to (agg slot in every pod).
  int core_group(int core) const { return core / radix(); }

  Host& host(int h) { return hosts_[h]; }
  const Host& host(int h) const { return hosts_[h]; }

  // --- ports (directed adjacencies) -------------------------------------------
  // host NIC -> its edge switch
  Port& host_up(int host) { return ports_[host]; }
  // edge switch -> host (indexed by global edge, local port)
  Port& edge_down(int edge, int port) { return ports_[group(kEdgeDown) + edge * radix() + port]; }
  Port& edge_down_for_host(int host) { return edge_down(edge_index(host), port_of(host)); }
  // edge -> aggregation (global edge, agg slot within pod)
  Port& edge_up(int edge, int agg) { return ports_[group(kEdgeUp) + edge * radix() + agg]; }
  // aggregation -> edge (pod, agg slot, edge slot)
  Port& agg_down(int pod, int agg, int edge) {
    return ports_[group(kAggDown) + (pod * radix() + agg) * radix() + edge];
  }
  // aggregation -> core (pod, agg slot, core slot within the agg's group)
  Port& agg_up(int pod, int agg, int core_slot) {
    return ports_[group(kAggUp) + (pod * radix() + agg) * radix() + core_slot];
  }
  // core -> pod's aggregation switch in the core's group
  Port& core_down(int core, int pod) { return ports_[group(kCoreDown) + core * cfg_.k + pod]; }
  /// Global core index reached from (agg slot, core slot).
  int core_index(int agg, int core_slot) const { return agg * radix() + core_slot; }

  /// Every port in this DC, grouped by kind (host_up, edge_down, edge_up,
  /// agg_down, agg_up, core_down): stats, traces and fault targets.
  std::vector<Port*> all_ports() const;
  /// Source-side uplink ports (edge->agg, agg->core): where Annulus-style
  /// near-source congestion feedback is installed.
  std::vector<Port*> uplink_ports() const;

 private:
  /// Port kinds in storage order; every kind has num_hosts() ports.
  enum Kind { kHostUp = 0, kEdgeDown, kEdgeUp, kAggDown, kAggUp, kCoreDown, kKinds };
  std::size_t group(Kind kind) const { return static_cast<std::size_t>(kind) * num_hosts(); }

  FatTreeConfig cfg_;  // the port classes' QueueConfigs live here, shared by pointer
  ChunkedVec<Host> hosts_;
  ChunkedVec<Port> ports_;  // kKinds groups of num_hosts() ports
};

}  // namespace uno
