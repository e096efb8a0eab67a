// Scheme catalogue: every transport stack evaluated in the paper, expressed
// as (intra CC, inter CC, intra LB, inter LB, EC on/off, marking source).
//
//   uno          — UnoCC + UnoRC (UnoLB + (8,2) erasure coding), phantom ECN
//   uno_ecmp     — UnoCC + ECMP, no EC ("Uno+ECMP" in Figs 9/10/12)
//   uno_no_ec    — UnoCC + UnoLB without EC (Fig 13 ablation)
//   gemini       — Gemini CC + ECMP, physical RED ECN
//   mprdma_bbr   — MPRDMA (intra, packet spraying) + BBR (inter, ECMP)
//   unocc_rps / unocc_plb — UnoCC with spraying / PLB (Fig 13 baselines)
//   dctcp        — classic DCTCP + ECMP (extra baseline / test vehicle)
#pragma once

#include <memory>
#include <string>

#include "core/config.hpp"
#include "lb/loadbalancer.hpp"
#include "transport/cc.hpp"
#include "transport/flow.hpp"

namespace uno {

enum class CcKind { kUno, kGemini, kMprdma, kBbr, kDctcp, kSwift };
enum class LbKind { kEcmp, kRps, kPlb, kUnoLb, kReps };

struct SchemeSpec {
  std::string name;
  CcKind cc_intra = CcKind::kUno;
  CcKind cc_inter = CcKind::kUno;
  LbKind lb_intra = LbKind::kUnoLb;
  LbKind lb_inter = LbKind::kUnoLb;
  bool ec_inter = false;        // erasure-code inter-DC flows
  bool phantom_marking = false; // ECN from phantom queues (Uno) vs physical RED
  /// Annulus-style near-source QCN feedback on source-side ports (the
  /// paper's footnote-4 future-work add-on; pairs with oversubscription).
  bool annulus = false;

  static SchemeSpec uno();
  static SchemeSpec uno_ecmp();
  static SchemeSpec uno_no_ec();
  static SchemeSpec gemini();
  static SchemeSpec mprdma_bbr();
  static SchemeSpec dctcp();
  /// Swift (delay-based) intra + BBR inter: a second split-control-loop
  /// baseline in the spirit of the paper's §6 discussion.
  static SchemeSpec swift_bbr();
  /// Uno with the Annulus near-source feedback add-on enabled.
  static SchemeSpec uno_annulus();
  /// UnoCC with an arbitrary LB and EC setting (Fig. 13 comparisons).
  static SchemeSpec unocc_with(LbKind lb, bool ec, const std::string& name);
  /// All schemes with spraying (Fig. 8 incast uses spraying everywhere).
  SchemeSpec with_spray() const;
};

/// Build the congestion controller for one flow.
std::unique_ptr<CongestionControl> make_cc(CcKind kind, const CcParams& cc,
                                           const UnoConfig& cfg);

/// Build the load balancer for one flow.
std::unique_ptr<LoadBalancer> make_lb(LbKind kind, std::uint64_t flow_id,
                                      std::uint16_t num_paths, Time base_rtt,
                                      const UnoConfig& cfg, std::uint64_t seed);

/// A scheme as a FlowStack: builds each flow's CC and LB in place in its
/// engine (the same kinds and arguments make_cc/make_lb use, picked by
/// FlowParams::interdc), so a flow's transport stack costs no heap
/// allocation. Completions are ignored unless a subclass listens.
class SchemeStack : public FlowStack {
 public:
  /// The shared transport knobs take MTU, EC block shape and block timeout
  /// from `cfg`.
  SchemeStack(const SchemeSpec& scheme, const UnoConfig& cfg, std::uint64_t seed);

  CongestionControl* build_cc(void* where, const FlowParams& p) const override;
  LoadBalancer* build_lb(void* where, const FlowParams& p, std::uint16_t num_paths,
                         SlabPool* pool) const override;
  /// The parameters a flow's congestion controller is built with.
  CcParams cc_params(const FlowParams& p) const;

 private:
  SchemeSpec scheme_;
  UnoConfig cfg_;
  std::uint64_t seed_;
};

}  // namespace uno
