// corral_perfbench: the repository benchmark's binary (see README.md here).
//
//   corral_perfbench --workload sim_tcp|ctrl_coflow|plan_w3 --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    [--inputs N] [--min-ops N] [--setups N] [--p90-tail N]
//
// A closed loop: one op at a time on the calling thread, exec pool width 1.
// Set-up (topology + every input from the seed + one untimed warm-up op) is
// repeated --setups times and its median reported as setup_s. Then ops cycle
// over the input pool for at least --seconds and --min-ops. Every op's
// outputs are checked, and every repeat of an input must reproduce its first
// outputs exactly. --trace 1 times a shorter untraced loop, then one traced
// op on each of the first 12 inputs, and prints the per-layer metrics
// instead.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The line before it, "fingerprint ...", holds the deterministic
// outputs, for comparing two processes run with one seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "layers.h"
#include "workloads.h"

using namespace corral;
using namespace corral::perfbench;

namespace {

// Inputs the traced run covers (the first of the pool).
constexpr int kTracedInputs = 12;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  int inputs = 0;  // 0 = the workload's default pool size
  int min_ops = 110;
  int setups = 7;
  int p90_tail = 10;  // ops that must lie beyond p90
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "corral_perfbench: %s\nusage: corral_perfbench --workload "
               "sim_tcp|ctrl_coflow|plan_w3 --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--inputs N] [--min-ops N] [--setups N] "
               "[--p90-tail N]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--inputs") {
      args.inputs = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--min-ops") {
      args.min_ops = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--setups") {
      args.setups = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--p90-tail") {
      args.p90_tail = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    usage("--workload and --work-dir are required");
  }
  if (!(args.seconds > 0) || args.inputs < 0 || args.min_ops < 1 ||
      args.setups < 1 || args.p90_tail < 0) {
    usage("out-of-range value");
  }
  return args;
}

// Nearest-rank quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::vector<double> sorted_copy(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

// Peak resident set of this process image. VmHWM, not getrusage: Linux
// carries ru_maxrss across execve, so it would report the parent's peak
// when that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// Runs one op; an op that throws counts as failed.
OpResult run_op(Workload& workload, int index, LayerTotals* layers) {
  const Clock::time_point start = Clock::now();
  try {
    return workload.run(index, layers);
  } catch (const std::exception& e) {
    OpResult result;
    result.ms = ms_since(start);
    result.ok = false;
    result.error = std::string("threw: ") + e.what();
    return result;
  }
}

// Runs ops over the pool and checks every repeat against the first pass.
class OpLoop {
 public:
  explicit OpLoop(Workload& workload)
      : workload_(workload),
        first_(static_cast<std::size_t>(workload.inputs())) {}

  // Untraced ops until both `seconds` and `min_ops` are reached (and at
  // least one full pass), or until the hard cap.
  void run_for(double seconds, int min_ops, double cap_seconds) {
    const int pool = workload_.inputs();
    const Clock::time_point start = Clock::now();
    while (true) {
      const double elapsed = ms_since(start) / 1e3;
      const int done = static_cast<int>(ms_.size());
      if (elapsed >= cap_seconds) break;
      if (elapsed >= seconds && done >= min_ops && done >= pool) break;
      record(done % pool, run_op(workload_, done % pool, nullptr));
    }
  }

  // A repeat of input `index` must reproduce its first outputs exactly.
  // Failed ops are counted as failures, not compared.
  bool check_repeat(int index, const OpResult& result) {
    if (!result.ok) return true;
    std::optional<OpResult>& first = first_[static_cast<std::size_t>(index)];
    if (!first) {
      first = result;
      return true;
    }
    if (first->fingerprint == result.fingerprint) return true;
    deterministic_ = false;
    std::fprintf(stderr,
                 "NONDETERMINISM: input %d gave \"%s\", first \"%s\"\n", index,
                 result.fingerprint.c_str(), first->fingerprint.c_str());
    return false;
  }

  bool complete_pass() const {
    return std::all_of(first_.begin(), first_.end(),
                       [](const auto& first) { return first.has_value(); });
  }

  double quality() const {
    double num = 0;
    double den = 0;
    for (const auto& first : first_) {
      num += first->quality_num;
      den += first->quality_den;
    }
    return num / den;
  }

  std::string fingerprint() const {
    std::string text;
    for (const auto& first : first_) text += first->fingerprint + ";";
    return text;
  }

  const std::vector<double>& op_ms() const { return ms_; }
  double work() const { return work_; }
  int failed() const { return failed_; }
  bool deterministic() const { return deterministic_; }
  const LayerTotals& ckpt() const { return ckpt_; }

 private:
  // Checks `result` and books it as op `index`.
  void record(int index, const OpResult& result) {
    ms_.push_back(result.ms);
    work_ += result.work;
    if (!result.ok) {
      ++failed_;
      std::fprintf(stderr, "op %zu (input %d) failed: %s\n", ms_.size() - 1,
                   index, result.error.c_str());
    }
    check_repeat(index, result);
    if (result.ckpt_bytes > 0) {
      ckpt_.ckpt_bytes = result.ckpt_bytes;
      ckpt_.ckpt_checks += 1;
      ckpt_.ckpt_read_ms += result.ckpt_read_ms;
      ckpt_.ckpt_serialize_ms += result.ckpt_serialize_ms;
    }
  }

  Workload& workload_;
  std::vector<std::optional<OpResult>> first_;
  std::vector<double> ms_;
  double work_ = 0;
  int failed_ = 0;
  bool deterministic_ = true;
  LayerTotals ckpt_;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run_benchmark(const Args& args) {
  exec::set_default_threads(1);
  exec::ThreadPool pool(1);
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, &pool, args.work_dir);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());
  const int inputs =
      args.inputs > 0 ? args.inputs : workload->default_inputs();
  // Keeps a run inside the caller's time limit even on a slow host.
  const double cap_seconds = std::max(90.0, 3 * args.seconds);

  // Set-up, repeated; each repeat rebuilds every input from the seed, and
  // its warm-up op must reproduce the previous repeats' outputs.
  std::vector<double> setup_s;
  std::optional<OpResult> warm_first;
  bool correct = true;
  double gen_ms = 0;
  for (int k = 0; k < args.setups; ++k) {
    const Clock::time_point start = Clock::now();
    gen_ms = workload->build(args.seed, inputs);
    const OpResult warm = run_op(*workload, 0, nullptr);
    setup_s.push_back(ms_since(start) / 1e3);
    if (!warm.ok) {
      correct = false;
      std::fprintf(stderr, "warm-up op failed: %s\n", warm.error.c_str());
    }
    if (!warm_first) {
      warm_first = warm;
    } else if (warm.fingerprint != warm_first->fingerprint) {
      correct = false;
      std::fprintf(stderr, "NONDETERMINISM: set-up %d warm-up differs\n", k);
    }
  }

  OpLoop loop(*workload);
  loop.check_repeat(0, *warm_first);
  loop.run_for(args.trace ? args.seconds / 2 : args.seconds,
               args.trace ? std::min(args.min_ops, 40) : args.min_ops,
               cap_seconds);
  const std::vector<double> untraced = sorted_copy(loop.op_ms());
  const int ops = static_cast<int>(untraced.size());
  const double p50 = quantile(untraced, 0.5);
  const double p90 = quantile(untraced, 0.9);
  const auto beyond_p90 = static_cast<int>(
      untraced.end() - std::upper_bound(untraced.begin(), untraced.end(), p90));
  if (!loop.complete_pass()) {
    correct = false;
    std::fprintf(stderr,
                 "no successful op on some of the %d inputs (failed ops, or "
                 "the time cap)\n",
                 inputs);
  }
  std::printf("workload %s seed %llu: %d inputs, %d ops, p50 %.3f ms, "
              "p90 %.3f ms (%d ops beyond p90)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), inputs, ops, p50,
              p90, beyond_p90);

  std::vector<Metric> metrics;
  int attempted = ops;
  int failed = loop.failed();
  if (!args.trace) {
    if (beyond_p90 < args.p90_tail) {
      correct = false;
      std::fprintf(stderr, "only %d ops beyond p90 (need %d)\n", beyond_p90,
                   args.p90_tail);
    }
    double op_seconds = 0;
    for (const double ms : untraced) op_seconds += ms / 1e3;
    const double quality = loop.complete_pass() ? loop.quality() : 0;
    metrics = {{"setup_s", quantile(sorted_copy(setup_s), 0.5), "s"},
               {"peak_rss_mb", peak_rss_mib(), "MiB"},
               {"op_p50_ms", p50, "ms"},
               {"op_p90_ms", p90, "ms"},
               {"work_per_s", loop.work() / op_seconds, "1/s"},
               {"quality_ratio", quality, "ratio"}};
    std::printf("fingerprint quality %a outputs %s\n", quality,
                loop.complete_pass() ? loop.fingerprint().c_str()
                                     : "incomplete");
  } else {
    // One traced op on each of the first kTracedInputs inputs; tracing
    // must not change any output.
    LayerTotals layers = loop.ckpt();
    layers.gen_ms = gen_ms;
    layers.ops = std::min(inputs, kTracedInputs);
    std::vector<double> traced;
    for (int i = 0; i < layers.ops; ++i) {
      const OpResult result = run_op(*workload, i, &layers);
      traced.push_back(result.ms);
      ++attempted;
      if (!result.ok) {
        ++failed;
        std::fprintf(stderr, "traced op (input %d) failed: %s\n", i,
                     result.error.c_str());
      }
      if (!loop.check_repeat(i, result)) correct = false;
    }
    metrics = per_layer_metrics(
        layers, quantile(sorted_copy(traced), 0.5) / p50);
    // Counts fixed by the input, for comparing two processes.
    std::printf("fingerprint layers");
    for (const Metric& metric : metrics) {
      if (metric.unit != "ms" && metric.unit != "us" &&
          metric.name != "obs.trace_overhead_ratio" &&
          metric.name != "ctrl.ckpt_bytes") {
        std::printf(" %s=%a", metric.name.c_str(), metric.value);
      }
    }
    std::printf("\n");
  }
  if (!loop.deterministic()) correct = false;
  print_result(correct && failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corral_perfbench: %s\n", e.what());
    return 1;
  }
}
