// Host-side packet demultiplexer.
//
// Every cached route terminates at the destination host's `Host` sink, which
// hands the packet to its flow's endpoint: data to the receiver half, ACKs,
// NACKs, trim NACKs and QCN notifications to the sender half. Endpoints are
// found in one run-wide `FlowTable` indexed by flow id, which keeps routes
// flow-agnostic and shareable and costs a host nothing per flow.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace uno {

/// The endpoints of every flow of a run, indexed by flow id - 1 (ids are
/// dense from 1: Experiment::spawn gives a flow its record index + 1).
/// Entries live in fixed chunks allocated on first use, so the table never
/// moves an entry and costs 16 bytes per id up to the largest one bound.
///
/// Writes happen when a flow record is built or destroyed — on the main
/// thread, before the run or between windows, while shard threads are
/// parked — so shard threads only ever read.
class FlowTable {
 public:
  FlowTable() = default;
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  void bind(std::uint64_t flow_id, PacketSink* sender, PacketSink* receiver) {
    assert(flow_id > 0);
    const std::size_t i = flow_id - 1;
    if (i / kChunk >= chunks_.size()) chunks_.resize(i / kChunk + 1);
    std::unique_ptr<Endpoints[]>& chunk = chunks_[i / kChunk];
    if (!chunk) chunk = std::make_unique<Endpoints[]>(kChunk);  // null-filled
    chunk[i % kChunk] = Endpoints{sender, receiver};
  }

  /// Forget a flow; its late packets then count as stray at their host.
  void unbind(std::uint64_t flow_id) {
    if (Endpoints* e = slot(flow_id)) *e = Endpoints{};
  }

  /// The endpoint `p` is addressed to, or null when its flow is not bound.
  PacketSink* endpoint(const Packet& p) const {
    const Endpoints* e = slot(p.flow_id);
    if (e == nullptr) return nullptr;
    return p.type == PacketType::kData ? e->receiver : e->sender;
  }

 private:
  struct Endpoints {
    PacketSink* sender = nullptr;
    PacketSink* receiver = nullptr;
  };
  static constexpr std::size_t kChunk = 256;  // 4 KiB of entries

  Endpoints* slot(std::uint64_t flow_id) const {
    const std::size_t i = flow_id - 1;
    if (flow_id == 0 || i / kChunk >= chunks_.size() || !chunks_[i / kChunk]) return nullptr;
    return &chunks_[i / kChunk][i % kChunk];
  }

  std::vector<std::unique_ptr<Endpoints[]>> chunks_;
};

class Host final : public PacketSink {
 public:
  Host(int id, int dc, std::string name, FlowTable& flows)
      : id_(id), dc_(dc), name_(std::move(name)), flows_(flows) {}

  int id() const { return id_; }
  int dc() const { return dc_; }
  const std::string& name() const override { return name_; }
  /// The run-wide table this host demultiplexes through.
  FlowTable& flows() const { return flows_; }

  void receive(Packet&& p) override {
    if (PacketSink* endpoint = flows_.endpoint(p)) return endpoint->receive(std::move(p));
    ++stray_;  // flow already torn down; late packets are dropped silently
  }

  std::uint64_t stray_packets() const { return stray_; }

 private:
  int id_;
  int dc_;
  std::string name_;
  FlowTable& flows_;
  std::uint64_t stray_ = 0;
};

}  // namespace uno
