#include "net/channel.hpp"

#include <cassert>

namespace uno {

ChannelLink::ChannelLink(EventQueue& src_eq, EventQueue& dst_eq,
                         std::string name, Time latency,
                         std::uint16_t channel_id)
    : src_eq_(src_eq),
      dst_eq_(dst_eq),
      split_(&src_eq != &dst_eq),
      name_(std::move(name)),
      latency_(latency),
      id_(channel_id),
      // Split: the destination drains pending_ during each window and the
      // next barrier flush refills it, so keep every node it ever filled
      // rather than free them on one thread and allocate them again on the
      // other. Unsplit channels give drained memory back.
      pending_(split_ ? NodeRing<InFlight>::kKeepAll : NodeRing<InFlight>::kDefaultSpares) {
  // Bounded-lag windows are `lookahead - 1` long; a sub-2ps channel would
  // degenerate them (sim/shard.hpp). No physical WAN link is remotely close.
  assert(!split_ || latency_ >= 2);
}

void ChannelLink::insert_pending(const InFlight& f) {
  std::size_t i = pending_.size();
  for (; i > 0; --i) {
    const InFlight& prev = pending_[i - 1];
    if (prev.due < f.due || (prev.due == f.due && prev.chanseq < f.chanseq)) break;
  }
  pending_.insert(i, f);
}

void ChannelLink::schedule_front() {
  if (pending_.empty()) return;
  InFlight& f = pending_.front();
  if (f.scheduled) return;
  f.scheduled = true;
  dst_eq_.schedule_keyed(f.due, this, f.chanseq,
                         EventQueue::canonical_seq(id_, f.chanseq));
}

void ChannelLink::receive(Packet&& p) {
  if (!up_ || (loss_ && loss_->should_drop(src_eq_.now()))) {
    ++dropped_;
    return;  // the transport's RTO / EC layer recovers the loss
  }
  const Time due = src_eq_.now() + latency_;
  const std::uint64_t cs = next_chanseq_++;
  if (split_) {
    staging_.push_back(InFlight{due, cs, false, p});
  } else {
    insert_pending(InFlight{due, cs, false, p});
    schedule_front();
  }
  note_occupancy();
}

std::size_t ChannelLink::flush_staged() {
  const std::size_t n = staging_.size();
  for (std::size_t i = 0; i < n; ++i) insert_pending(staging_[i]);
  staging_.clear();
  schedule_front();
  pending_at_flush_ = pending_.size();
  note_occupancy();
  return n;
}

void ChannelLink::on_event(std::uint64_t chanseq) {
  // Almost always the front entry; scan tolerates the due-order inversion a
  // mid-run latency decrease can cause (the displaced ex-front keeps its own
  // live event, so every entry still dispatches exactly once, at its key).
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].chanseq != chanseq) continue;
    ++delivered_;
    Packet p = pending_[i].p;  // erase first: forward() may grow pending_
    pending_.erase(i);
    schedule_front();  // chain the next head before forward() can ingress
    forward(std::move(p));
    return;
  }
  assert(false && "channel delivery event with no matching in-flight entry");
}

}  // namespace uno
