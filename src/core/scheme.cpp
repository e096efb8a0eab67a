#include "core/scheme.hpp"

#include <algorithm>
#include <utility>

#include "transport/bbr.hpp"
#include "transport/dctcp.hpp"
#include "transport/gemini.hpp"
#include "transport/mprdma.hpp"
#include "transport/swift.hpp"
#include "transport/unocc.hpp"

namespace uno {

SchemeSpec SchemeSpec::uno() {
  SchemeSpec s;
  s.name = "uno";
  s.cc_intra = s.cc_inter = CcKind::kUno;
  s.lb_intra = s.lb_inter = LbKind::kUnoLb;
  s.ec_inter = true;
  s.phantom_marking = true;
  return s;
}

SchemeSpec SchemeSpec::uno_ecmp() {
  SchemeSpec s = uno();
  s.name = "uno+ecmp";
  s.lb_intra = s.lb_inter = LbKind::kEcmp;
  s.ec_inter = false;
  return s;
}

SchemeSpec SchemeSpec::uno_no_ec() {
  SchemeSpec s = uno();
  s.name = "uno-noec";
  s.ec_inter = false;
  return s;
}

SchemeSpec SchemeSpec::gemini() {
  SchemeSpec s;
  s.name = "gemini";
  s.cc_intra = s.cc_inter = CcKind::kGemini;
  s.lb_intra = s.lb_inter = LbKind::kEcmp;
  return s;
}

SchemeSpec SchemeSpec::mprdma_bbr() {
  SchemeSpec s;
  s.name = "mprdma+bbr";
  s.cc_intra = CcKind::kMprdma;
  s.cc_inter = CcKind::kBbr;
  s.lb_intra = LbKind::kRps;  // MP-RDMA sprays packets
  s.lb_inter = LbKind::kEcmp; // BBR is single-path
  return s;
}

SchemeSpec SchemeSpec::dctcp() {
  SchemeSpec s;
  s.name = "dctcp";
  s.cc_intra = s.cc_inter = CcKind::kDctcp;
  s.lb_intra = s.lb_inter = LbKind::kEcmp;
  return s;
}

SchemeSpec SchemeSpec::swift_bbr() {
  SchemeSpec s;
  s.name = "swift+bbr";
  s.cc_intra = CcKind::kSwift;
  s.cc_inter = CcKind::kBbr;
  s.lb_intra = LbKind::kRps;
  s.lb_inter = LbKind::kEcmp;
  return s;
}

SchemeSpec SchemeSpec::uno_annulus() {
  SchemeSpec s = uno();
  s.name = "uno+annulus";
  s.annulus = true;
  return s;
}

SchemeSpec SchemeSpec::unocc_with(LbKind lb, bool ec, const std::string& name) {
  SchemeSpec s = uno();
  s.name = name;
  s.lb_intra = s.lb_inter = lb;
  s.ec_inter = ec;
  return s;
}

SchemeSpec SchemeSpec::with_spray() const {
  SchemeSpec s = *this;
  s.name += "+spray";
  s.lb_intra = s.lb_inter = LbKind::kRps;
  return s;
}

namespace {

// One switch per closed set of kinds, shared by the heap builders (make_cc,
// make_lb) and the in-place ones (SchemeStack): a Maker receives the
// concrete type and its constructor arguments.

template <typename Base>
struct OnHeap {
  template <typename T, typename... Args>
  std::unique_ptr<Base> make(Args&&... args) const {
    return std::make_unique<T>(std::forward<Args>(args)...);
  }
};

template <typename Base, std::size_t kBytes>
struct InPlace {
  void* where;
  template <typename T, typename... Args>
  Base* make(Args&&... args) const {
    static_assert(sizeof(T) <= kBytes && alignof(T) <= 16, "grow the in-place storage");
    return ::new (where) T(std::forward<Args>(args)...);
  }
};

constexpr std::size_t kCcBytes = std::max({sizeof(UnoCc), sizeof(GeminiCc), sizeof(MprdmaCc),
                                           sizeof(BbrCc), sizeof(DctcpCc), sizeof(SwiftCc)});
constexpr std::size_t kLbBytes = std::max(
    {sizeof(EcmpLb), sizeof(RpsLb), sizeof(PlbLb), sizeof(RepsLb), sizeof(UnoLb)});

template <typename Maker>
auto make_cc_with(const Maker& m, CcKind kind, const CcParams& cc, const UnoConfig& cfg)
    -> decltype(m.template make<DctcpCc>(cc)) {
  switch (kind) {
    case CcKind::kUno: {
      UnoCc::Params p;
      p.alpha_fraction = cfg.alpha_fraction;
      p.beta = cfg.beta;
      p.k_fraction = cfg.k_fraction;
      p.enable_qa = cfg.unocc_enable_qa;
      p.md_scale_decay = cfg.unocc_gentle_md;
      p.enable_pacing = cfg.unocc_enable_pacing;
      // 0 -> intra RTT (unified); otherwise react at the flow's own RTT,
      // which is exactly the Gemini granularity the paper argues against.
      p.epoch_period = cfg.unocc_unified_epoch ? 0 : cc.base_rtt;
      return m.template make<UnoCc>(cc, p);
    }
    case CcKind::kGemini:
      return m.template make<GeminiCc>(cc, GeminiCc::Params{});
    case CcKind::kMprdma:
      return m.template make<MprdmaCc>(cc);
    case CcKind::kBbr:
      return m.template make<BbrCc>(cc);
    case CcKind::kDctcp:
      return m.template make<DctcpCc>(cc);
    case CcKind::kSwift:
      return m.template make<SwiftCc>(cc);
  }
  return nullptr;
}

template <typename Maker>
auto make_lb_with(const Maker& m, LbKind kind, std::uint64_t flow_id, std::uint16_t num_paths,
                  Time base_rtt, const UnoConfig& cfg, std::uint64_t seed, SlabPool* pool)
    -> decltype(m.template make<EcmpLb>(flow_id, num_paths)) {
  switch (kind) {
    case LbKind::kEcmp:
      return m.template make<EcmpLb>(flow_id, num_paths);
    case LbKind::kRps:
      return m.template make<RpsLb>(num_paths, Rng::stream(seed, flow_id * 2 + 1));
    case LbKind::kPlb: {
      PlbLb::Params p;
      p.round_duration = base_rtt;
      return m.template make<PlbLb>(p, flow_id, num_paths, Rng::stream(seed, flow_id * 2 + 1));
    }
    case LbKind::kReps:
      return m.template make<RepsLb>(num_paths, Rng::stream(seed, flow_id * 2 + 1));
    case LbKind::kUnoLb: {
      UnoLb::Params p;
      p.num_subflows = cfg.subflows();
      p.base_rtt = base_rtt;
      return m.template make<UnoLb>(p, num_paths, Rng::stream(seed, flow_id * 2 + 1), pool);
    }
  }
  return nullptr;
}

TransportParams transport_for(const UnoConfig& cfg) {
  TransportParams t;
  t.mtu = cfg.mtu;
  t.ec_data = cfg.ec_data;
  t.ec_parity = cfg.ec_parity;
  t.block_timeout = cfg.block_timeout;
  return t;
}

}  // namespace

std::unique_ptr<CongestionControl> make_cc(CcKind kind, const CcParams& cc,
                                           const UnoConfig& cfg) {
  return make_cc_with(OnHeap<CongestionControl>{}, kind, cc, cfg);
}

std::unique_ptr<LoadBalancer> make_lb(LbKind kind, std::uint64_t flow_id,
                                      std::uint16_t num_paths, Time base_rtt,
                                      const UnoConfig& cfg, std::uint64_t seed) {
  return make_lb_with(OnHeap<LoadBalancer>{}, kind, flow_id, num_paths, base_rtt, cfg, seed,
                      nullptr);
}

SchemeStack::SchemeStack(const SchemeSpec& scheme, const UnoConfig& cfg, std::uint64_t seed)
    : FlowStack(kCcBytes, kLbBytes, transport_for(cfg)), scheme_(scheme), cfg_(cfg),
      seed_(seed) {}

CcParams SchemeStack::cc_params(const FlowParams& p) const {
  CcParams c;
  c.base_rtt = p.base_rtt;
  c.intra_rtt = cfg_.intra_rtt;
  c.line_rate = cfg_.link_rate;
  c.mtu = cfg_.mtu;
  c.flow_bytes = static_cast<std::int64_t>(p.size_bytes);
  return c;
}

CongestionControl* SchemeStack::build_cc(void* where, const FlowParams& p) const {
  return make_cc_with(InPlace<CongestionControl, kCcBytes>{where},
                      p.interdc ? scheme_.cc_inter : scheme_.cc_intra, cc_params(p), cfg_);
}

LoadBalancer* SchemeStack::build_lb(void* where, const FlowParams& p, std::uint16_t num_paths,
                                    SlabPool* pool) const {
  return make_lb_with(InPlace<LoadBalancer, kLbBytes>{where},
                      p.interdc ? scheme_.lb_inter : scheme_.lb_intra, p.id, num_paths,
                      p.base_rtt, cfg_, seed_, pool);
}

}  // namespace uno
