// The benchmark's three workloads. Each builds a pool of inputs from the
// seed and runs one op at a time on the calling thread (exec pool width 1).
#ifndef CORRAL_PERFBENCH_WORKLOADS_H_
#define CORRAL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "exec/exec.h"
#include "layers.h"

namespace corral::perfbench {

struct OpResult {
  double ms = 0;      // host time of the op proper, checks excluded
  bool ok = true;
  std::string error;  // the first failed output check
  double work = 0;    // work units the input fixes (see work_unit())
  // The op's share of quality_ratio: sum(num) / sum(den) over one pass.
  double quality_num = 0;
  double quality_den = 0;
  // Deterministic outputs; repeats of one input must match byte for byte.
  std::string fingerprint;
  // Checkpoint round-trip cost (ctrl_coflow only).
  double ckpt_bytes = 0;
  double ckpt_read_ms = 0;
  double ckpt_serialize_ms = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the topology and every op's input from `seed`; returns the ms
  // spent in the workload generators (make_w1 / make_w3 /
  // make_service_fleet).
  virtual double build(std::uint64_t seed, int inputs) = 0;
  virtual int inputs() const = 0;
  // Runs one op on input `index` and checks its outputs. Non-null `layers`
  // runs it traced: flows-level tracer, policy decorators and per-call
  // timers, accumulated into *layers.
  virtual OpResult run(int index, LayerTotals* layers) = 0;
  virtual int default_inputs() const = 0;
};

// Returns nullptr for an unknown name. `work_dir` holds the checkpoint
// files ctrl_coflow writes.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        exec::ThreadPool* pool,
                                        const std::string& work_dir);

}  // namespace corral::perfbench

#endif  // CORRAL_PERFBENCH_WORKLOADS_H_
