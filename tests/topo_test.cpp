// Fat-tree / inter-DC topology structure and path-enumeration tests.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "topo/interdc.hpp"

namespace uno {
namespace {

InterDcConfig small_cfg(int k = 4) {
  InterDcConfig c;
  c.k = k;
  return c;
}

TEST(FatTree, DimensionsForK4) {
  EventQueue eq;
  FatTreeConfig cfg;
  cfg.k = 4;
  FlowTable flows;
  FatTreeDC dc(eq, 0, cfg, flows);
  EXPECT_EQ(dc.num_hosts(), 16);
  EXPECT_EQ(dc.num_pods(), 4);
  EXPECT_EQ(dc.num_cores(), 4);
  EXPECT_EQ(dc.edges_per_pod(), 2);
  EXPECT_EQ(dc.hosts_per_edge(), 2);
}

TEST(FatTree, DimensionsForK8MatchPaper) {
  EventQueue eq;
  FatTreeConfig cfg;
  cfg.k = 8;
  FlowTable flows;
  FatTreeDC dc(eq, 0, cfg, flows);
  // "16 core switches and 8 pods with 4 aggregate and 4 edge switches. Each
  // edge switch is connected to 4 servers." (§5.1)
  EXPECT_EQ(dc.num_cores(), 16);
  EXPECT_EQ(dc.num_pods(), 8);
  EXPECT_EQ(dc.edges_per_pod(), 4);
  EXPECT_EQ(dc.hosts_per_edge(), 4);
  EXPECT_EQ(dc.num_hosts(), 128);
}

TEST(FatTree, HostDecomposition) {
  EventQueue eq;
  FatTreeConfig cfg;
  cfg.k = 4;
  FlowTable flows;
  FatTreeDC dc(eq, 0, cfg, flows);
  // Host 7 with k=4: hosts_per_pod=4 -> pod 1, edge 1, port 1.
  EXPECT_EQ(dc.pod_of(7), 1);
  EXPECT_EQ(dc.edge_of(7), 1);
  EXPECT_EQ(dc.port_of(7), 1);
  EXPECT_EQ(dc.edge_index(7), 3);
}

TEST(FatTree, QueueAndLinkCounts) {
  EventQueue eq;
  FatTreeConfig cfg;
  cfg.k = 4;
  FlowTable flows;
  FatTreeDC dc(eq, 0, cfg, flows);
  // One port per directed adjacency: host_up 16, edge_down 8*2, edge_up
  // 8*2, agg_down 8*2, agg_up 8*2, core_down 4*4 = 6*16 = 96.
  EXPECT_EQ(dc.all_ports().size(), 96u);
  std::set<Port*> distinct;
  for (Port* p : dc.all_ports()) {
    distinct.insert(p);
    EXPECT_EQ(p->channel(), nullptr) << p->name();  // fabric wires are local
  }
  EXPECT_EQ(distinct.size(), 96u);
  EXPECT_EQ(dc.uplink_ports().size(), 32u);
  EXPECT_EQ(&dc.edge_down_for_host(7), &dc.edge_down(3, 1));
  EXPECT_EQ(dc.core_down(3, 2).name(), "dc0.c3.down2");
  EXPECT_EQ(dc.agg_up(1, 1, 0).name(), "dc0.p1.a1.up0");
}

TEST(InterDc, BaseRttsMatchTable2) {
  InterDcConfig cfg = small_cfg();
  EXPECT_EQ(cfg.intra_base_rtt(), 14 * kMicrosecond);
  EXPECT_EQ(cfg.inter_base_rtt(), 2 * kMillisecond);
  // And the helper inverts correctly.
  cfg.cross_link_latency = cfg.cross_latency_for_rtt(8 * kMillisecond);
  EXPECT_EQ(cfg.inter_base_rtt(), 8 * kMillisecond);
}

TEST(InterDc, HostIndexing) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  EXPECT_EQ(topo.num_hosts(), 32);
  EXPECT_EQ(topo.dc_of(0), 0);
  EXPECT_EQ(topo.dc_of(16), 1);
  EXPECT_EQ(topo.local_id(20), 4);
  EXPECT_TRUE(topo.is_interdc(3, 17));
  EXPECT_FALSE(topo.is_interdc(3, 7));
}

/// Walk a route and validate structural invariants: non-null hops, one
/// port per adjacency, terminating at the right host. Only a cross port's
/// wire is a ChannelLink.
void check_route(InterDcTopology& topo, const Route& r, int dst) {
  ASSERT_GE(r.hops.size(), 3u);
  for (PacketSink* h : r.hops) ASSERT_NE(h, nullptr);
  EXPECT_EQ(r.hops.back(), &topo.host(dst));
  for (std::size_t i = 0; i + 1 < r.hops.size(); ++i) {
    const auto* port = dynamic_cast<Port*>(r.hops[i]);
    ASSERT_NE(port, nullptr) << "hop " << i;
    const bool cross = port->name().find(".cross") != std::string::npos;
    EXPECT_EQ(port->channel() != nullptr, cross) << port->name();
  }
}

TEST(InterDc, SameEdgePathIsMinimal) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& ps = topo.paths(0, 1);  // same edge switch
  ASSERT_EQ(ps.size(), 1u);
  check_route(topo, ps.forward[0], 1);
  check_route(topo, ps.reverse[0], 0);
  EXPECT_EQ(ps.forward[0].hops.size(), 3u);  // 2 ports + host
}

TEST(InterDc, SamePodPathsPerAgg) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& ps = topo.paths(0, 2);  // same pod, different edge
  ASSERT_EQ(ps.size(), 2u);              // one per aggregation switch (k/2)
  for (const Route& r : ps.forward) {
    check_route(topo, r, 2);
    EXPECT_EQ(r.hops.size(), 5u);  // 4 ports + host
  }
}

TEST(InterDc, CrossPodPathsPerAggCore) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& ps = topo.paths(0, 12);  // different pod
  ASSERT_EQ(ps.size(), 4u);               // (k/2)^2
  std::set<PacketSink*> first_hops;
  for (const Route& r : ps.forward) {
    check_route(topo, r, 12);
    EXPECT_EQ(r.hops.size(), 7u);  // 6 ports + host
    first_hops.insert(r.hops[1]);  // the edge-up port differs by agg
  }
  EXPECT_EQ(first_hops.size(), 2u);  // 2 agg choices
}

TEST(InterDc, InterDcPathsCoverAllCrossLinks) {
  EventQueue eq;
  InterDcConfig cfg = small_cfg();
  cfg.max_paths_inter = 16;
  InterDcTopology topo(eq, cfg);
  const PathSet& ps = topo.paths(2, 17);
  ASSERT_EQ(ps.size(), 16u);
  std::set<PacketSink*> cross_queues;
  for (const Route& r : ps.forward) {
    check_route(topo, r, 17);
    EXPECT_EQ(r.hops.size(), 10u);   // 9 ports + host
    cross_queues.insert(r.hops[4]);  // the cross port
  }
  // Entropies cycle across all 8 border links (i % cross_links).
  EXPECT_EQ(cross_queues.size(), 8u);
  std::set<PacketSink*> expected;
  for (int j = 0; j < 8; ++j) expected.insert(&topo.cross_port(0, j));
  EXPECT_EQ(cross_queues, expected);
}

TEST(InterDc, PathCacheReturnsSameObject) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& a = topo.paths(0, 12);
  const PathSet& b = topo.paths(0, 12);
  EXPECT_EQ(&a, &b);
}

TEST(InterDc, ForwardReverseArePaired) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  const PathSet& ps = topo.paths(1, 20);
  ASSERT_EQ(ps.forward.size(), ps.reverse.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(ps.forward[i].path_id, i);
    EXPECT_EQ(ps.reverse[i].hops.back(), &topo.host(1));
  }
}

TEST(InterDc, PropagationDelayMatchesConfiguredRtt) {
  EventQueue eq;
  InterDcConfig cfg = small_cfg();
  InterDcTopology topo(eq, cfg);
  // Sum link latencies along a cross-pod intra route: should equal half the
  // configured intra base RTT.
  const PathSet& ps = topo.paths(0, 12);
  Time total = 0;
  for (PacketSink* h : ps.forward[0].hops)
    if (auto* p = dynamic_cast<Port*>(h)) total += p->latency();
  EXPECT_EQ(total, cfg.intra_base_rtt() / 2);

  // A cross port reports its channel's latency.
  const PathSet& inter = topo.paths(0, 16 + 12);
  Time wan = 0;
  for (PacketSink* h : inter.forward[0].hops)
    if (auto* p = dynamic_cast<Port*>(h)) wan += p->latency();
  EXPECT_EQ(wan, cfg.inter_base_rtt() / 2);
}

TEST(InterDc, CrossPortsOfAThreeDcMesh) {
  // Cross ports are addressed by (dc, peer, link) with no self links; their
  // channels are numbered in that order, and every port with a local wire
  // precedes them in all_ports().
  EventQueue eq;
  InterDcConfig cfg = small_cfg();
  cfg.num_dcs = 3;
  cfg.cross_links = 2;
  InterDcTopology topo(eq, cfg);
  const std::vector<ChannelLink*> chans = topo.all_channels();
  ASSERT_EQ(chans.size(), 3u * 2u * 2u);
  std::size_t next = 0;
  for (int d = 0; d < 3; ++d)
    for (int peer = 0; peer < 3; ++peer)
      for (int j = 0; peer != d && j < 2; ++j) {
        Port& p = topo.cross_port(d, peer, j);
        EXPECT_EQ(p.name(), "dc" + std::to_string(d) + ".border.cross" + std::to_string(peer) +
                                "." + std::to_string(j));
        ASSERT_EQ(p.channel(), chans[next]);
        EXPECT_EQ(p.channel()->channel_id(), next);
        ++next;
      }
  const std::vector<Port*> ports = topo.all_ports();
  ASSERT_EQ(ports.size(), 3u * (96u + 2u * 4u) + chans.size());
  for (std::size_t i = 0; i < ports.size(); ++i)
    EXPECT_EQ(ports[i]->channel() != nullptr, i >= ports.size() - chans.size()) << i;
  std::size_t atoms = 0;
  for (int d = 0; d < 3; ++d) atoms += topo.atom_ports(d).size();
  EXPECT_EQ(atoms, ports.size());
}

TEST(InterDc, DropAccountingStartsAtZero) {
  EventQueue eq;
  InterDcTopology topo(eq, small_cfg());
  EXPECT_EQ(topo.total_drops(), 0u);
}

}  // namespace
}  // namespace uno
