// Propagation-delay pipe with failure and stochastic-loss injection.
//
// A Link models the wire only: packets entering it emerge `latency` later at
// the next hop of their route, in FIFO order. Serialization happens upstream
// in the Queue feeding the link. Links are unidirectional; a full-duplex
// cable is two Link objects.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/ring.hpp"
#include "net/loss.hpp"
#include "net/packet.hpp"
#include "sim/event.hpp"

namespace uno {

class Link final : public PacketSink, public EventHandler {
 public:
  /// In-flight packets are parked in blocks of `packets` (the heap when
  /// null); the pool must outlive the link.
  Link(EventQueue& eq, std::string name, Time latency, SlabPool* packets = nullptr)
      : eq_(eq), name_(std::move(name)), latency_(latency), packets_(packets) {}
  ~Link() override { flush(); }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void receive(Packet&& p) override;
  void receive_parked(Packet* p, SlabPool* pool) override;
  void on_event(std::uint64_t tag) override;

  const std::string& name() const override { return name_; }
  Time latency() const { return latency_; }
  void set_latency(Time latency) { latency_ = latency; }

  /// Take the link down or back up. Going down drops everything: packets
  /// entering a down link are dropped at ingress, and packets already in
  /// flight are flushed and counted in `dropped()` — a severed wire does not
  /// deliver its tail.
  void set_up(bool up);
  bool up() const { return up_; }

  /// Attach a stochastic loss model (evaluated per packet at ingress).
  void set_loss_model(std::unique_ptr<LossModel> model) { loss_ = std::move(model); }
  /// Replace the loss model, returning the displaced one (fault injection
  /// restores the original after a transient loss spike).
  std::unique_ptr<LossModel> swap_loss_model(std::unique_ptr<LossModel> model) {
    std::swap(loss_, model);
    return model;
  }
  const LossModel* loss_model() const { return loss_.get(); }

  /// Packets propagating right now.
  std::size_t in_flight() const { return inflight_.size(); }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Deliveries that rode along in another packet's event because they
  /// shared its arrival instant (see the drain loop in on_event).
  std::uint64_t coalesced_deliveries() const { return coalesced_; }

 private:
  /// Release every in-flight packet's block and empty the ring.
  void flush();

  EventQueue& eq_;
  std::string name_;
  Time latency_;
  bool up_ = true;
  std::unique_ptr<LossModel> loss_;
  SlabPool* packets_;
  struct InFlight {
    Time due = 0;
    Packet* p = nullptr;
  };
  PodRing<InFlight> inflight_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t coalesced_ = 0;
};

}  // namespace uno
