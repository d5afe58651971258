#include "ctrl/checkpoint.h"

#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "corral/fingerprint.h"
#include "util/check.h"

namespace corral {
namespace {

constexpr std::string_view kMagic = "corral-checkpoint";
constexpr std::string_view kVersion = "v2";

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// Doubles round-trip as the hex image of their IEEE-754 bits: exact for
// every value including -0.0, subnormals, infinities and NaN payloads.
std::string bits(double value) {
  return hex16(std::bit_cast<std::uint64_t>(value));
}

class Writer {
 public:
  void word(std::string_view text) {
    sep();
    out_ << text;
  }
  void integer(long long value) {
    sep();
    out_ << value;
  }
  void u64(std::uint64_t value) { word(hex16(value)); }
  void real(double value) { word(bits(value)); }
  void boolean(bool value) { integer(value ? 1 : 0); }
  void str(const std::string& text) {
    integer(static_cast<long long>(text.size()));
    out_ << ' ' << text;
    line_open_ = true;
  }
  void endl() {
    out_ << '\n';
    line_open_ = false;
  }
  std::string take() { return out_.str(); }

 private:
  void sep() {
    if (line_open_) out_ << ' ';
    line_open_ = true;
  }
  std::ostringstream out_;
  bool line_open_ = false;
};

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  std::string_view word() {
    skip_ws();
    require(pos_ < text_.size(), "checkpoint: truncated");
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  void expect(std::string_view expected) {
    const std::string_view got = word();
    require(got == expected, "checkpoint: expected '" +
                                 std::string(expected) + "', got '" +
                                 std::string(got) + "'");
  }

  long long integer() {
    const std::string token(word());
    char* end = nullptr;
    const long long value = std::strtoll(token.c_str(), &end, 10);
    require(end != token.c_str() && *end == '\0',
            "checkpoint: bad integer '" + token + "'");
    return value;
  }

  int count() {
    const long long value = integer();
    require(value >= 0, "checkpoint: negative count");
    return static_cast<int>(value);
  }

  std::uint64_t u64() {
    const std::string token(word());
    char* end = nullptr;
    const unsigned long long value = std::strtoull(token.c_str(), &end, 16);
    require(end != token.c_str() && *end == '\0',
            "checkpoint: bad hex value '" + token + "'");
    return value;
  }

  std::uint64_t u64_dec() {
    const long long value = integer();
    require(value >= 0, "checkpoint: negative counter");
    return static_cast<std::uint64_t>(value);
  }

  double real() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const long long value = integer();
    require(value == 0 || value == 1, "checkpoint: bad boolean");
    return value == 1;
  }

  std::string str() {
    const long long len = integer();
    require(len >= 0, "checkpoint: negative string length");
    require(pos_ < text_.size() && text_[pos_] == ' ',
            "checkpoint: malformed string");
    ++pos_;
    require(pos_ + static_cast<std::size_t>(len) <= text_.size(),
            "checkpoint: truncated string");
    std::string out(text_.substr(pos_, static_cast<std::size_t>(len)));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }

  void finish() {
    skip_ws();
    require(pos_ == text_.size(), "checkpoint: trailing data");
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  std::string_view text_;
  std::size_t pos_ = 0;
};

void put_plan(Writer& w, const Plan& plan) {
  w.word("plan");
  w.integer(static_cast<long long>(plan.jobs.size()));
  w.real(plan.predicted_makespan);
  w.real(plan.predicted_avg_completion);
  w.integer(static_cast<long long>(plan.evaluated_candidates));
  w.endl();
  for (const PlannedJob& job : plan.jobs) {
    w.integer(job.job_index);
    w.integer(job.num_racks);
    w.integer(job.priority);
    w.real(job.start_time);
    w.real(job.predicted_latency);
    w.integer(static_cast<long long>(job.racks.size()));
    for (int rack : job.racks) w.integer(rack);
    w.endl();
  }
}

Plan get_plan(Reader& r) {
  r.expect("plan");
  Plan plan;
  const int jobs = r.count();
  plan.predicted_makespan = r.real();
  plan.predicted_avg_completion = r.real();
  plan.evaluated_candidates = static_cast<std::size_t>(r.integer());
  plan.jobs.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    PlannedJob job;
    job.job_index = static_cast<int>(r.integer());
    job.num_racks = static_cast<int>(r.integer());
    job.priority = static_cast<int>(r.integer());
    job.start_time = r.real();
    job.predicted_latency = r.real();
    const int racks = r.count();
    job.racks.reserve(static_cast<std::size_t>(racks));
    for (int k = 0; k < racks; ++k) {
      job.racks.push_back(static_cast<int>(r.integer()));
    }
    plan.jobs.push_back(std::move(job));
  }
  return plan;
}

void put_report(Writer& w, const EpochReport& report) {
  w.word("report");
  w.integer(report.epoch);
  w.integer(report.day);
  w.boolean(report.weekend);
  w.u64(report.cache_key);
  w.boolean(report.cache_hit);
  w.boolean(report.outage);
  w.boolean(report.drift_replan);
  w.integer(static_cast<long long>(report.invalidations));
  w.integer(report.planning_racks);
  w.integer(report.planning_updates);
  w.integer(static_cast<long long>(report.replan_cost_evals));
  w.integer(static_cast<long long>(report.rf_hits));
  w.integer(static_cast<long long>(report.rf_misses));
  w.real(report.mean_prediction_error);
  w.real(report.predicted_makespan);
  w.real(report.realized_makespan);
  w.real(report.makespan_error);
  w.real(report.mean_completion_error);
  w.integer(report.jobs_failed);
  w.integer(static_cast<int>(report.mode));
  w.integer(report.chaos_injected);
  w.integer(report.quarantined);
  w.integer(report.exec_retries);
  w.boolean(report.planner_overrun);
  w.boolean(report.fallback_plan);
  w.boolean(report.stale_topology);
  w.boolean(report.aborted);
  w.boolean(report.demoted);
  w.boolean(report.promoted);
  w.endl();
}

EpochReport get_report(Reader& r) {
  r.expect("report");
  EpochReport report;
  report.epoch = static_cast<int>(r.integer());
  report.day = static_cast<int>(r.integer());
  report.weekend = r.boolean();
  report.cache_key = r.u64();
  report.cache_hit = r.boolean();
  report.outage = r.boolean();
  report.drift_replan = r.boolean();
  report.invalidations = r.u64_dec();
  report.planning_racks = static_cast<int>(r.integer());
  report.planning_updates = static_cast<int>(r.integer());
  report.replan_cost_evals = static_cast<std::size_t>(r.integer());
  report.rf_hits = r.u64_dec();
  report.rf_misses = r.u64_dec();
  report.mean_prediction_error = r.real();
  report.predicted_makespan = r.real();
  report.realized_makespan = r.real();
  report.makespan_error = r.real();
  report.mean_completion_error = r.real();
  report.jobs_failed = static_cast<int>(r.integer());
  const int mode = static_cast<int>(r.integer());
  require(mode == 0 || mode == 1, "checkpoint: bad report mode");
  report.mode = static_cast<ControlMode>(mode);
  report.chaos_injected = static_cast<int>(r.integer());
  report.quarantined = static_cast<int>(r.integer());
  report.exec_retries = static_cast<int>(r.integer());
  report.planner_overrun = r.boolean();
  report.fallback_plan = r.boolean();
  report.stale_topology = r.boolean();
  report.aborted = r.boolean();
  report.demoted = r.boolean();
  report.promoted = r.boolean();
  return report;
}

// The per-tenant body: everything one TenantLoop mutates across epochs,
// from the "state" line through the "rf" section; one per tenant.
void put_body(Writer& w, const CheckpointState& state) {
  w.word("state");
  w.integer(state.next_epoch);
  w.u64(state.prev_topology);
  w.boolean(state.force_replan);
  w.endl();
  w.word("budget");
  w.integer(static_cast<int>(state.budget_mode));
  w.integer(state.budget_bad);
  w.integer(state.budget_good);
  w.integer(state.budget_demotions);
  w.integer(state.budget_promotions);
  w.endl();

  require(state.planning_inputs.size() == state.histories.size(),
          "serialize_service_checkpoint: planning_inputs/histories size "
          "mismatch");
  w.word("pipelines");
  w.integer(static_cast<long long>(state.histories.size()));
  w.endl();
  for (std::size_t i = 0; i < state.histories.size(); ++i) {
    w.word("sticky");
    w.real(state.planning_inputs[i][0]);
    w.real(state.planning_inputs[i][1]);
    w.integer(static_cast<long long>(state.histories[i].size()));
    w.endl();
    for (const JobInstance& instance : state.histories[i]) {
      w.integer(instance.day);
      w.integer(instance.run_of_day);
      w.real(instance.input_bytes);
      w.endl();
    }
  }

  w.word("reports");
  w.integer(static_cast<long long>(state.reports.size()));
  w.integer(state.drift_trips);
  w.endl();
  for (const EpochReport& report : state.reports) put_report(w, report);

  w.word("last_good");
  w.boolean(state.has_last_good);
  w.u64(state.last_good_topology);
  w.endl();
  if (state.has_last_good) put_plan(w, state.last_good_plan);

  w.word("plan_cache");
  w.integer(static_cast<long long>(state.plan_cache.entries.size()));
  w.integer(static_cast<long long>(state.plan_cache.stats.hits));
  w.integer(static_cast<long long>(state.plan_cache.stats.misses));
  w.integer(static_cast<long long>(state.plan_cache.stats.invalidations));
  w.integer(static_cast<long long>(state.plan_cache.stats.evictions));
  w.integer(static_cast<long long>(state.plan_cache.stats.corruptions));
  w.endl();
  for (const PlanCache::Snapshot::Item& item : state.plan_cache.entries) {
    w.word("entry");
    w.u64(item.key.workload);
    w.u64(item.key.topology);
    w.u64(item.key.planner);
    w.endl();
    put_plan(w, item.plan);
  }

  w.word("rf");
  w.integer(static_cast<long long>(state.rf_entries.size()));
  w.integer(static_cast<long long>(state.rf_hits));
  w.integer(static_cast<long long>(state.rf_misses));
  w.endl();
  for (const auto& [key, latencies] : state.rf_entries) {
    w.u64(key);
    w.integer(static_cast<long long>(latencies.size()));
    for (Seconds latency : latencies) w.real(latency);
    w.endl();
  }
}

void get_body(Reader& r, CheckpointState& state) {
  r.expect("state");
  state.next_epoch = static_cast<int>(r.integer());
  state.prev_topology = r.u64();
  state.force_replan = r.boolean();
  r.expect("budget");
  const int mode = static_cast<int>(r.integer());
  require(mode == 0 || mode == 1, "checkpoint: bad budget mode");
  state.budget_mode = static_cast<ControlMode>(mode);
  state.budget_bad = static_cast<int>(r.integer());
  state.budget_good = static_cast<int>(r.integer());
  state.budget_demotions = static_cast<int>(r.integer());
  state.budget_promotions = static_cast<int>(r.integer());

  r.expect("pipelines");
  const int pipelines = r.count();
  state.planning_inputs.reserve(static_cast<std::size_t>(pipelines));
  state.histories.reserve(static_cast<std::size_t>(pipelines));
  for (int i = 0; i < pipelines; ++i) {
    r.expect("sticky");
    std::array<Bytes, 2> sticky{r.real(), r.real()};
    state.planning_inputs.push_back(sticky);
    const int entries = r.count();
    std::vector<JobInstance> history;
    history.reserve(static_cast<std::size_t>(entries));
    for (int j = 0; j < entries; ++j) {
      JobInstance instance;
      instance.day = static_cast<int>(r.integer());
      instance.run_of_day = static_cast<int>(r.integer());
      instance.input_bytes = r.real();
      history.push_back(instance);
    }
    state.histories.push_back(std::move(history));
  }

  r.expect("reports");
  const int reports = r.count();
  state.drift_trips = static_cast<int>(r.integer());
  state.reports.reserve(static_cast<std::size_t>(reports));
  for (int i = 0; i < reports; ++i) state.reports.push_back(get_report(r));

  r.expect("last_good");
  state.has_last_good = r.boolean();
  state.last_good_topology = r.u64();
  if (state.has_last_good) state.last_good_plan = get_plan(r);

  r.expect("plan_cache");
  const int entries = r.count();
  state.plan_cache.stats.hits = static_cast<std::uint64_t>(r.integer());
  state.plan_cache.stats.misses = static_cast<std::uint64_t>(r.integer());
  state.plan_cache.stats.invalidations =
      static_cast<std::uint64_t>(r.integer());
  state.plan_cache.stats.evictions = static_cast<std::uint64_t>(r.integer());
  state.plan_cache.stats.corruptions =
      static_cast<std::uint64_t>(r.integer());
  state.plan_cache.entries.reserve(static_cast<std::size_t>(entries));
  for (int i = 0; i < entries; ++i) {
    r.expect("entry");
    PlanCache::Snapshot::Item item;
    item.key.workload = r.u64();
    item.key.topology = r.u64();
    item.key.planner = r.u64();
    item.plan = get_plan(r);
    state.plan_cache.entries.push_back(std::move(item));
  }

  r.expect("rf");
  const int rf_entries = r.count();
  state.rf_hits = static_cast<std::uint64_t>(r.integer());
  state.rf_misses = static_cast<std::uint64_t>(r.integer());
  state.rf_entries.reserve(static_cast<std::size_t>(rf_entries));
  for (int i = 0; i < rf_entries; ++i) {
    const std::uint64_t key = r.u64();
    const int count = r.count();
    std::vector<Seconds> latencies;
    latencies.reserve(static_cast<std::size_t>(count));
    for (int j = 0; j < count; ++j) latencies.push_back(r.real());
    state.rf_entries.emplace_back(key, std::move(latencies));
  }
}

void put_trace(Writer& w, const obs::TraceSnapshot& trace) {
  w.word("trace");
  w.integer(static_cast<long long>(trace.sinks.size()));
  w.endl();
  for (const obs::TraceSnapshot::Sink& sink : trace.sinks) {
    w.word("sink");
    w.integer(sink.id);
    w.str(sink.label);
    w.integer(static_cast<long long>(sink.events.size()));
    w.endl();
    for (const obs::TraceEvent& event : sink.events) {
      w.integer(static_cast<int>(event.phase));
      w.integer(static_cast<int>(event.track));
      w.integer(event.tid);
      w.real(event.ts);
      w.real(event.dur);
      w.real(event.value);
      w.str(event.name);
      w.str(event.cat);
      w.integer(static_cast<long long>(event.args.size()));
      for (const obs::TraceArg& arg : event.args) {
        w.boolean(arg.numeric);
        w.real(arg.num);
        w.str(arg.key);
        w.str(arg.str);
      }
      w.endl();
    }
  }
}

void get_trace(Reader& r, obs::TraceSnapshot& trace) {
  r.expect("trace");
  const int sinks = r.count();
  trace.sinks.reserve(static_cast<std::size_t>(sinks));
  for (int i = 0; i < sinks; ++i) {
    r.expect("sink");
    obs::TraceSnapshot::Sink sink;
    sink.id = static_cast<int>(r.integer());
    sink.label = r.str();
    const int events = r.count();
    sink.events.reserve(static_cast<std::size_t>(events));
    for (int j = 0; j < events; ++j) {
      obs::TraceEvent event;
      const int phase = static_cast<int>(r.integer());
      require(phase >= 0 && phase <= 2, "checkpoint: bad trace phase");
      event.phase = static_cast<obs::TracePhase>(phase);
      const int track = static_cast<int>(r.integer());
      require(track >= 0 && track < obs::kTraceTracks,
              "checkpoint: bad trace track");
      event.track = static_cast<obs::TraceTrack>(track);
      event.tid = static_cast<long>(r.integer());
      event.ts = r.real();
      event.dur = r.real();
      event.value = r.real();
      event.name = r.str();
      event.cat = r.str();
      const int args = r.count();
      event.args.reserve(static_cast<std::size_t>(args));
      for (int k = 0; k < args; ++k) {
        obs::TraceArg arg;
        arg.numeric = r.boolean();
        arg.num = r.real();
        arg.key = r.str();
        arg.str = r.str();
        event.args.push_back(std::move(arg));
      }
      sink.events.push_back(std::move(event));
    }
    trace.sinks.push_back(std::move(sink));
  }
}

// Appends the checksum trailer; the inverse of verify_checksum.
std::string seal(Writer& w) {
  std::string body = w.take();
  const std::uint64_t checksum = fnv1a(body);
  body += "checksum " + hex16(checksum) + "\n";
  return body;
}

// Verifies the trailer and returns the body it covers.
std::string_view verify_checksum(const std::string& text) {
  const std::size_t trailer = text.rfind("\nchecksum ");
  require(trailer != std::string::npos, "checkpoint: missing checksum");
  const std::string_view body(text.data(), trailer + 1);
  Reader tail(std::string_view(text).substr(trailer + 1));
  tail.expect("checksum");
  const std::uint64_t expected = tail.u64();
  tail.finish();
  require(fnv1a(body) == expected, "checkpoint: checksum mismatch");
  return body;
}

}  // namespace

std::uint64_t control_loop_fingerprint(
    const ControlLoopConfig& config,
    const std::vector<RecurringPipeline>& pipelines) {
  Fingerprint f;
  f.mix(topology_fingerprint(config.cluster));
  f.mix(static_cast<std::uint64_t>(config.objective ==
                                   Objective::kMakespan
                                       ? 0
                                       : 1));
  f.mix(static_cast<std::uint64_t>(config.planner_backend));
  f.mix(static_cast<std::uint64_t>(config.net_policy));
  f.mix(static_cast<std::uint64_t>(config.epochs));
  f.mix(static_cast<std::uint64_t>(config.warmup_days));
  f.mix(config.drift_threshold);
  f.mix(config.size_quantum);
  f.mix(static_cast<std::uint64_t>(config.history_window_days));
  f.mix(static_cast<std::uint64_t>(config.outages.size()));
  for (const RackOutage& outage : config.outages) {
    f.mix(static_cast<std::uint64_t>(outage.epoch));
    f.mix(static_cast<std::uint64_t>(outage.rack));
  }
  f.mix(static_cast<std::uint64_t>(config.cache_capacity));
  f.mix(config.seed);
  f.mix(config.chaos.fingerprint());
  f.mix(config.chaos_seed);
  f.mix(static_cast<std::uint64_t>(config.resilience.enabled ? 1 : 0));
  f.mix(static_cast<std::uint64_t>(config.resilience.planner_budget_evals));
  f.mix(static_cast<std::uint64_t>(config.resilience.max_retries));
  f.mix(config.resilience.retry_backoff);
  f.mix(config.resilience.outlier_factor);
  f.mix(static_cast<std::uint64_t>(config.resilience.demote_after));
  f.mix(static_cast<std::uint64_t>(config.resilience.promote_after));
  f.mix(static_cast<std::uint64_t>(pipelines.size()));
  for (const RecurringPipeline& pipeline : pipelines) {
    f.mix(job_fingerprint(pipeline.reference, config.size_quantum));
    f.mix(pipeline.shape.base_input);
    f.mix(static_cast<std::uint64_t>(pipeline.timeline.size()));
    for (const JobInstance& instance : pipeline.timeline) {
      f.mix(static_cast<std::uint64_t>(instance.day));
      f.mix(static_cast<std::uint64_t>(instance.run_of_day));
      f.mix(instance.input_bytes);
    }
  }
  return f.value();
}

std::string serialize_service_checkpoint(const ServiceCheckpointState& state) {
  Writer w;
  w.word(kMagic);
  w.word(kVersion);
  w.endl();
  w.word("config");
  w.u64(state.config_fingerprint);
  w.endl();
  w.word("service");
  w.integer(state.next_epoch);
  w.integer(static_cast<long long>(state.tenants.size()));
  w.endl();
  for (std::size_t t = 0; t < state.tenants.size(); ++t) {
    w.word("tenant");
    w.integer(static_cast<long long>(t));
    w.endl();
    put_body(w, state.tenants[t]);
  }
  put_trace(w, state.trace);
  return seal(w);
}

ServiceCheckpointState deserialize_service_checkpoint(
    const std::string& text) {
  const std::string_view body = verify_checksum(text);
  Reader r(body);
  r.expect(kMagic);
  r.expect(kVersion);
  ServiceCheckpointState state;
  r.expect("config");
  state.config_fingerprint = r.u64();
  r.expect("service");
  state.next_epoch = static_cast<int>(r.integer());
  const int tenants = r.count();
  state.tenants.reserve(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    r.expect("tenant");
    const long long index = r.integer();
    require(index == t, "checkpoint: tenant sections out of order");
    CheckpointState tenant;
    get_body(r, tenant);
    state.tenants.push_back(std::move(tenant));
  }
  get_trace(r, state.trace);
  r.finish();
  return state;
}

void write_service_checkpoint(const std::string& path,
                              const ServiceCheckpointState& state) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp + " for write");
    out << serialize_service_checkpoint(state);
    if (!out) throw std::runtime_error("write to " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("rename " + tmp + " -> " + path + " failed");
  }
}

ServiceCheckpointState read_service_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw std::runtime_error("read from " + path + " failed");
  }
  return deserialize_service_checkpoint(buffer.str());
}

}  // namespace corral
