// Flow rate allocation policies (§6.6).
//
// The simulator supports pluggable network schedulers, mirroring the paper's
// flow-based event simulator: "We have implemented ... a max-min fair
// bandwidth allocation mechanism to emulate TCP, and Varys, which uses
// application communication patterns to better schedule flows."
#ifndef CORRAL_NET_ALLOCATOR_H_
#define CORRAL_NET_ALLOCATOR_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "net/links.h"
#include "obs/trace.h"

namespace corral {

// The registered rate-allocation policies. `tcp` and `varys` are the paper's
// two network schedulers; `lp-order` and `sincronia` are the coflow-suite
// additions implemented in src/coflow (Qiu–Stein–Zhong LP ordering and a
// Sincronia-style bottleneck approximation). The numeric values are mixed
// into control-loop and service fingerprints, so they are part of the
// checkpoint format: append, never renumber.
enum class NetPolicy {
  kTcp = 0,
  kVarys = 1,
  kLpOrder = 2,
  kSincronia = 3,
};

// Flag-facing spelling of a policy ("tcp", "varys", "lp-order",
// "sincronia") and its inverse. parse_net_policy returns false on an
// unknown spelling and leaves *policy untouched.
std::string_view to_string(NetPolicy policy);
bool parse_net_policy(std::string_view text, NetPolicy* policy);

// The valid flag spellings, in enum order (for FlagParser::add_choice).
const std::vector<std::string>& net_policy_names();

struct FlowPath {
  std::array<int, 4> links{};
  int count = 0;

  void add(int link);
};

struct Flow {
  int id = 0;
  Bytes total = 0;
  Bytes remaining = 0;
  // Number of aggregated subflows; max-min fair share is width-weighted so
  // an aggregate of w task-level transfers competes like w TCP connections.
  double width = 1.0;
  // Coflow id (>= 0) groups the flows of one shuffle for Varys; -1 means
  // the flow is not part of any coflow and competes individually.
  int coflow = -1;
  // Opaque caller tag (the simulator stores task identifiers here).
  std::uint64_t tag = 0;
  bool cross_rack = false;
  FlowPath path;
  BytesPerSec rate = 0;  // output of the allocator
};

class RateAllocator {
 public:
  virtual ~RateAllocator() = default;

  // Assigns Flow::rate for every flow, respecting link capacities. Flows
  // are guaranteed a positive rate (the policies are work conserving), so
  // the simulation always makes progress.
  virtual void allocate(std::vector<Flow>& flows, const LinkSet& links) = 0;

  virtual std::string_view name() const = 0;

  // Attaches tracing (level >= flows records allocator internals: fill
  // rounds, SEBF orderings). `clock` points at the owning simulator's
  // virtual-time counter (forwarded by Network::set_trace), read at each
  // allocate() call; null stamps allocator events at t=0.
  void set_trace(const obs::TraceRecorder& trace, const double* clock) {
    trace_ = trace;
    clock_ = clock;
  }

 protected:
  double trace_now() const { return clock_ != nullptr ? *clock_ : 0.0; }

  obs::TraceRecorder trace_;
  const double* clock_ = nullptr;
};

// Width-weighted max-min fairness via progressive filling; a fluid proxy
// for per-connection TCP fairness.
class MaxMinFairAllocator : public RateAllocator {
 public:
  void allocate(std::vector<Flow>& flows, const LinkSet& links) override;
  std::string_view name() const override { return "tcp-maxmin"; }
};

// Varys-like coflow scheduling: Smallest Effective Bottleneck First ordering
// across coflows, minimum-allocation-for-desired-duration (MADD) rates
// within a coflow, and max-min backfilling of leftover capacity for work
// conservation.
class VarysAllocator : public RateAllocator {
 public:
  void allocate(std::vector<Flow>& flows, const LinkSet& links) override;
  std::string_view name() const override { return "varys"; }

 private:
  // SEBF order of the previous allocation (coflow keys, smallest-gamma
  // first), kept only to notice and trace priority inversions.
  std::vector<long> last_order_;
  std::uint64_t reorders_ = 0;
};

}  // namespace corral

#endif  // CORRAL_NET_ALLOCATOR_H_
