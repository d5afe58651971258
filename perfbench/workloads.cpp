#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "corral/lp_bound.h"
#include "ctrl/checkpoint.h"
#include "ctrl/report.h"
#include "ctrl/service.h"
#include "plan/backend.h"
#include "sim/simulator.h"
#include "workload/workloads.h"

namespace corral::perfbench {
namespace {

// One independent stream per (seed, input index).
std::uint64_t input_seed(std::uint64_t seed, int index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Exact text image of a double (hex float) for fingerprints.
std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

std::string hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void fail(OpResult& result, const std::string& why) {
  if (result.ok) result.error = why;
  result.ok = false;
}

// Times the planner layers on one planning input outside the op: response
// functions, prioritization at the plan's rack counts, the two alternative
// backends (lpround's simplex pivots) and the LP-Batch bound.
void probe_planner(std::span<const JobSpec> jobs, const ClusterConfig& cluster,
                   const Plan& plan, exec::ThreadPool* pool,
                   LayerTotals& layers) {
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const std::vector<ResponseFunction> functions = timed(
      &layers.rf_build_ms,
      [&] { return build_response_functions(jobs, cluster.racks, params); });
  PlannerConfig config;
  config.pool = pool;
  std::vector<int> racks;
  racks.reserve(plan.jobs.size());
  for (const PlannedJob& job : plan.jobs) racks.push_back(job.num_racks);
  timed(&layers.prioritize_ms, [&] {
    return prioritize(functions, racks, cluster.racks, config);
  });
  plan::PlannerRequest request;
  request.jobs = functions;
  request.specs = jobs;
  request.num_racks = cluster.racks;
  request.config = &config;
  timed(&layers.dagpack_ms, [&] {
    return plan::planner_backend(PlannerBackendKind::kDagPack).plan(request);
  });
  const plan::ProvisionPlan lpround = timed(&layers.lpround_ms, [&] {
    return plan::planner_backend(PlannerBackendKind::kLpRound).plan(request);
  });
  layers.pivots += static_cast<double>(lpround.plan.evaluated_candidates);
  timed(&layers.bound_ms, [&] {
    return lp_batch_makespan_bound(functions, cluster.racks, pool);
  });
}

// The planner's view of a W1 batch: its recurring jobs.
std::vector<JobSpec> recurring_of(const std::vector<JobSpec>& jobs) {
  std::vector<JobSpec> recurring;
  std::copy_if(jobs.begin(), jobs.end(), std::back_inserter(recurring),
               [](const JobSpec& job) { return job.recurring; });
  return recurring;
}

// A 120-job W1 batch at task_scale 0.05 whose size classes are exactly
// W1's 50/35/15 mix (60 small, 42 medium, 18 large jobs, each drawn by
// make_w1), shuffled and renumbered. Fixing the class counts keeps every
// op the same shape: a free draw puts 18 +- 4 large jobs in a batch.
std::vector<JobSpec> stratified_w1(Rng& rng) {
  constexpr std::array<std::pair<int, int>, 3> kClasses = {
      {{60, 0}, {42, 1}, {18, 2}}};  // (jobs, class: small/medium/large)
  std::vector<JobSpec> jobs;
  for (const auto& [count, size_class] : kClasses) {
    W1Config config;
    config.num_jobs = count;
    config.task_scale = 0.05;
    config.fraction_small = size_class == 0 ? 1.0 : 0.0;
    config.fraction_medium = size_class == 1 ? 1.0 : 0.0;
    for (JobSpec& job : make_w1(config, rng)) jobs.push_back(std::move(job));
  }
  for (int i = static_cast<int>(jobs.size()) - 1; i > 0; --i) {
    std::swap(jobs[static_cast<std::size_t>(i)],
              jobs[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<int>(i);
    jobs[i].name = "w1-job-" + std::to_string(i);
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// sim_tcp: plan one W1 batch with Corral, then simulate it under Yarn-CS and
// under Corral on the 210-machine testbed (tcp max-min fabric).
class SimTcp : public Workload {
 public:
  explicit SimTcp(exec::ThreadPool* pool) : pool_(pool) {}

  int default_inputs() const override { return 96; }
  int inputs() const override { return static_cast<int>(batches_.size()); }

  double build(std::uint64_t seed, int inputs) override {
    sim_ = bench::default_sim(bench::testbed());
    sim_.net_policy = NetPolicy::kTcp;
    batches_.clear();
    double gen_ms = 0;
    for (int i = 0; i < inputs; ++i) {
      Rng rng(input_seed(seed, i));
      Batch batch;
      batch.sim_seed = input_seed(seed ^ 0x5eedULL, i);
      batch.jobs = timed(&gen_ms, [&] { return stratified_w1(rng); });
      batch.recurring = recurring_of(batch.jobs);
      for (const JobSpec& job : batch.jobs) {
        batch.tasks += job.num_tasks();
        batch.ids.insert(job.id);
      }
      batches_.push_back(std::move(batch));
    }
    return gen_ms;
  }

  OpResult run(int index, LayerTotals* layers) override {
    const Batch& batch = batches_[static_cast<std::size_t>(index)];
    SimConfig config = sim_;
    config.seed = batch.sim_seed;
    std::unique_ptr<obs::Tracer> tracer;
    if (layers != nullptr) {
      tracer = make_flow_tracer();
      config.tracer = tracer.get();
    }
    double plan_ms = 0;
    double sim_ms = 0;
    PlannerConfig planner;
    planner.pool = pool_;
    planner.tracer = tracer.get();
    planner.trace_sink = 2;

    const Clock::time_point start = Clock::now();
    const Plan plan = timed(&plan_ms, [&] {
      return plan_offline(batch.recurring, sim_.cluster, planner);
    });
    const PlanLookup lookup(batch.recurring, plan);
    YarnCapacityPolicy yarn_policy;
    CorralPolicy corral_policy(&lookup);
    const auto simulate = [&](SchedulingPolicy& policy, int sink) {
      config.trace_sink = sink;
      if (layers == nullptr) return run_simulation(batch.jobs, policy, config);
      TimedPolicy decorated(policy, layers);
      return timed(&sim_ms, [&] {
        return run_simulation(batch.jobs, decorated, config);
      });
    };
    const SimResult yarn = simulate(yarn_policy, 0);
    const SimResult corral = simulate(corral_policy, 1);
    OpResult result;
    result.ms = ms_since(start);

    check(batch, yarn, result);
    check(batch, corral, result);
    result.work = 2.0 * batch.tasks;
    result.quality_num = corral.makespan;
    result.quality_den = yarn.makespan;
    result.fingerprint = exact(yarn.makespan) + " " + exact(corral.makespan) +
                         " " + exact(yarn.total_cross_rack_bytes) + " " +
                         exact(corral.total_cross_rack_bytes) + " " +
                         exact(plan.predicted_makespan) + " " +
                         std::to_string(plan.evaluated_candidates);
    if (layers != nullptr) {
      layers->sim_run_ms += sim_ms;
      layers->sim_tasks += result.work;
      layers->plan_ms += plan_ms;
      layers->candidates += static_cast<double>(plan.evaluated_candidates);
      layers->cross_rack_bytes +=
          yarn.total_cross_rack_bytes + corral.total_cross_rack_bytes;
      scan_trace(*tracer, *layers);
      probe_planner(batch.recurring, sim_.cluster, plan, pool_, *layers);
    }
    return result;
  }

 private:
  struct Batch {
    std::vector<JobSpec> jobs;
    std::vector<JobSpec> recurring;
    std::set<int> ids;
    double tasks = 0;
    std::uint64_t sim_seed = 0;
  };

  // Every job of the batch ran to a successful end, and nothing else ran.
  static void check(const Batch& batch, const SimResult& sim,
                    OpResult& result) {
    const std::string who = sim.policy_name + ": ";
    if (!(sim.makespan > 0)) fail(result, who + "makespan is not positive");
    if (sim.jobs_failed != 0) fail(result, who + "jobs failed");
    std::set<int> ids;
    for (const JobResult& job : sim.jobs) {
      ids.insert(job.job_id);
      if (job.failed || !(job.finish >= job.arrival)) {
        fail(result, who + "job " + std::to_string(job.job_id) +
                         " did not finish");
      }
    }
    if (ids != batch.ids || sim.jobs.size() != batch.jobs.size()) {
      fail(result, who + "job set differs from the input batch");
    }
  }

  exec::ThreadPool* pool_;
  SimConfig sim_;
  std::vector<Batch> batches_;
};

// ---------------------------------------------------------------------------
// ctrl_coflow: one multi-tenant control-service run, four tenants with
// distinct (net policy, planner backend), a rack outage mid-run and a
// checkpoint after every epoch.
class CtrlCoflow : public Workload {
 public:
  static constexpr int kTenants = 4;
  static constexpr int kEpochs = 8;

  CtrlCoflow(exec::ThreadPool* pool, std::string checkpoint_path)
      : pool_(pool), checkpoint_path_(std::move(checkpoint_path)) {}
  ~CtrlCoflow() override {
    std::remove(checkpoint_path_.c_str());
    std::remove((checkpoint_path_ + ".tmp").c_str());
  }
  CtrlCoflow(const CtrlCoflow&) = delete;
  CtrlCoflow& operator=(const CtrlCoflow&) = delete;

  int default_inputs() const override { return 64; }
  int inputs() const override { return static_cast<int>(fleets_.size()); }

  double build(std::uint64_t seed, int inputs) override {
    static constexpr std::array<int, kTenants> kPriorities = {3, 1, 1, 2};
    static constexpr std::array<std::pair<NetPolicy, PlannerBackendKind>,
                                kTenants>
        kAxes = {{{NetPolicy::kTcp, PlannerBackendKind::kCorral},
                  {NetPolicy::kVarys, PlannerBackendKind::kDagPack},
                  {NetPolicy::kLpOrder, PlannerBackendKind::kLpRound},
                  {NetPolicy::kSincronia, PlannerBackendKind::kCorral}}};
    fleets_.clear();
    configs_.clear();
    references_.clear();
    double gen_ms = 0;
    for (int i = 0; i < inputs; ++i) {
      Rng rng(input_seed(seed, i));
      ServiceConfig config;
      config.loop.cluster = bench::testbed();
      config.loop.epochs = kEpochs;
      config.loop.warmup_days = 14;
      config.loop.seed = input_seed(seed ^ 0xc7c1ULL, i);
      config.loop.outages = {
          {kEpochs / 2, rng.uniform_int(0, config.loop.cluster.racks - 1)}};
      config.loop.pool = pool_;
      config.loop.checkpoint_path = checkpoint_path_;
      config.shards = 1;
      W1Config workload;
      workload.num_jobs = 24;
      workload.task_scale = 0.08 * rng.uniform(0.97, 1.03);
      std::vector<ServiceTenant> fleet = timed(&gen_ms, [&] {
        return make_service_fleet(workload, config.loop.warmup_days,
                                  config.loop.epochs, config.loop.seed,
                                  kTenants, kPriorities);
      });
      for (int t = 0; t < kTenants; ++t) {
        fleet[static_cast<std::size_t>(t)].net_policy = kAxes[t].first;
        fleet[static_cast<std::size_t>(t)].backend = kAxes[t].second;
      }
      std::vector<JobSpec> references;
      for (const ServiceTenant& tenant : fleet) {
        for (const RecurringPipeline& pipeline : tenant.pipelines) {
          references.push_back(pipeline.reference);
        }
      }
      references_.push_back(std::move(references));
      fleets_.push_back(std::move(fleet));
      configs_.push_back(std::move(config));
    }
    return gen_ms;
  }

  OpResult run(int index, LayerTotals* layers) override {
    ServiceConfig config = configs_[static_cast<std::size_t>(index)];
    std::vector<ServiceTenant> fleet = fleets_[static_cast<std::size_t>(index)];
    std::unique_ptr<obs::Tracer> tracer;
    if (layers != nullptr) {
      tracer = make_flow_tracer();
      config.loop.tracer = tracer.get();
      // A checkpoint of a traced run also snapshots the whole trace, every
      // epoch; the checkpoint layer is measured on the untraced ops instead.
      config.loop.checkpoint_path.clear();
    }
    const Clock::time_point start = Clock::now();
    const ServiceResult service = run_control_service(std::move(fleet), config);
    OpResult result;
    result.ms = ms_since(start);

    const ControlLoopResult& combined = service.combined;
    const int tenant_epochs = kTenants * kEpochs;
    if (service.tenants.size() != static_cast<std::size_t>(kTenants)) {
      fail(result, "tenant count differs from the fleet");
    }
    if (combined.epochs_completed != tenant_epochs) {
      fail(result, "epochs_completed " +
                       std::to_string(combined.epochs_completed) + " != " +
                       std::to_string(tenant_epochs));
    }
    if (combined.epochs_aborted != 0) fail(result, "aborted epochs");
    if (combined.cache.hits + combined.cache.misses !=
        static_cast<std::uint64_t>(tenant_epochs)) {
      fail(result, "plan-cache hits + misses != tenant-epochs");
    }
    if (layers == nullptr) check_checkpoint(result);

    result.work = combined.epochs_completed;
    for (const EpochReport& epoch : combined.epochs) {
      result.quality_num += epoch.makespan_error;
    }
    result.quality_den = static_cast<double>(combined.epochs.size());
    result.fingerprint = hex(fnv1a(service_report_json_string(service)));
    if (layers != nullptr) {
      layers->service_ms += result.ms;
      layers->tenant_epochs += combined.epochs_completed;
      layers->cache_hits += static_cast<double>(combined.cache.hits);
      layers->cache_misses += static_cast<double>(combined.cache.misses);
      layers->rf_hits += static_cast<double>(combined.rf_hits);
      layers->rf_misses += static_cast<double>(combined.rf_misses);
      for (const EpochReport& epoch : combined.epochs) {
        layers->replan_evals += static_cast<double>(epoch.replan_cost_evals);
      }
      for (const TenantResult& tenant : service.tenants) {
        layers->grant_changes += tenant.grant_changes;
      }
      layers->retries_aborts += combined.exec_retries + combined.epochs_aborted;
      scan_trace(*tracer, *layers);
      // The service plans inside the op; the planner layers are timed on
      // its planning input, every tenant's reference jobs, on the testbed.
      const std::vector<JobSpec>& references =
          references_[static_cast<std::size_t>(index)];
      PlannerConfig planner;
      planner.pool = pool_;
      const Plan plan = timed(&layers->plan_ms, [&] {
        return plan_offline(references, config.loop.cluster, planner);
      });
      layers->candidates += static_cast<double>(plan.evaluated_candidates);
      probe_planner(references, config.loop.cluster, plan, pool_, *layers);
    }
    return result;
  }

 private:
  // The last checkpoint written reads back and re-serializes to the same
  // bytes.
  void check_checkpoint(OpResult& result) const {
    std::ifstream in(checkpoint_path_, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in || text.str().empty()) {
      fail(result, "no checkpoint at " + checkpoint_path_);
      return;
    }
    result.ckpt_bytes = static_cast<double>(text.str().size());
    try {
      const ServiceCheckpointState state =
          timed(&result.ckpt_read_ms,
                [&] { return read_service_checkpoint(checkpoint_path_); });
      const std::string again = timed(&result.ckpt_serialize_ms, [&] {
        return serialize_service_checkpoint(state);
      });
      if (again != text.str()) fail(result, "checkpoint does not round-trip");
    } catch (const std::exception& e) {
      fail(result, std::string("checkpoint unreadable: ") + e.what());
    }
  }

  exec::ThreadPool* pool_;
  std::string checkpoint_path_;
  std::vector<std::vector<ServiceTenant>> fleets_;
  std::vector<ServiceConfig> configs_;
  std::vector<std::vector<JobSpec>> references_;
};

// ---------------------------------------------------------------------------
// plan_w3: Corral's offline plan of one W3 batch on a 40 x 40 cluster.
class PlanW3 : public Workload {
 public:
  explicit PlanW3(exec::ThreadPool* pool) : pool_(pool) {
    cluster_.racks = 40;
    cluster_.machines_per_rack = 40;
    cluster_.slots_per_machine = 8;
    cluster_.nic_bandwidth = 2.5 * kGbps;
    cluster_.oversubscription = 5.0;
  }

  int default_inputs() const override { return 128; }
  int inputs() const override { return static_cast<int>(batches_.size()); }

  double build(std::uint64_t seed, int inputs) override {
    batches_.clear();
    double gen_ms = 0;
    const LatencyModelParams params =
        LatencyModelParams::from_cluster(cluster_);
    for (int i = 0; i < inputs; ++i) {
      Rng rng(input_seed(seed, i));
      W3Config config;
      config.num_jobs = 150 + rng.uniform_int(-3, 3);
      Batch batch;
      batch.jobs = timed(&gen_ms, [&] { return make_w3(config, rng); });
      batch.lp_bound = lp_batch_makespan_bound(
          build_response_functions(batch.jobs, cluster_.racks, params),
          cluster_.racks, pool_);
      batches_.push_back(std::move(batch));
    }
    return gen_ms;
  }

  OpResult run(int index, LayerTotals* layers) override {
    const Batch& batch = batches_[static_cast<std::size_t>(index)];
    PlannerConfig config;
    config.pool = pool_;
    std::unique_ptr<obs::Tracer> tracer;
    if (layers != nullptr) {
      tracer = make_flow_tracer();
      config.tracer = tracer.get();
    }
    const Clock::time_point start = Clock::now();
    const Plan plan = plan_offline(batch.jobs, cluster_, config);
    OpResult result;
    result.ms = ms_since(start);

    if (plan.jobs.size() != batch.jobs.size()) {
      fail(result, "plan covers a different job count");
    }
    std::string assignment;
    for (const PlannedJob& job : plan.jobs) {
      const std::set<int> racks(job.racks.begin(), job.racks.end());
      if (racks.empty() || static_cast<int>(racks.size()) > cluster_.racks ||
          *racks.begin() < 0 || *racks.rbegin() >= cluster_.racks) {
        fail(result, "job " + std::to_string(job.job_index) +
                         " has an invalid rack set");
      }
      assignment += std::to_string(job.priority) + ":";
      for (const int rack : job.racks) assignment += std::to_string(rack) + ",";
    }
    if (!(plan.predicted_makespan >= batch.lp_bound)) {
      fail(result, "predicted makespan below the LP-Batch bound");
    }
    result.work = static_cast<double>(batch.jobs.size());
    result.quality_num = plan.predicted_makespan;
    result.quality_den = batch.lp_bound;
    result.fingerprint = exact(plan.predicted_makespan) + " " +
                         std::to_string(plan.evaluated_candidates) + " " +
                         hex(fnv1a(assignment));
    if (layers != nullptr) {
      layers->plan_ms += result.ms;
      layers->candidates += static_cast<double>(plan.evaluated_candidates);
      scan_trace(*tracer, *layers);
      probe_planner(batch.jobs, cluster_, plan, pool_, *layers);
    }
    return result;
  }

 private:
  struct Batch {
    std::vector<JobSpec> jobs;
    Seconds lp_bound = 0;
  };

  exec::ThreadPool* pool_;
  ClusterConfig cluster_;
  std::vector<Batch> batches_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        exec::ThreadPool* pool,
                                        const std::string& work_dir) {
  if (name == "sim_tcp") return std::make_unique<SimTcp>(pool);
  if (name == "plan_w3") return std::make_unique<PlanW3>(pool);
  if (name == "ctrl_coflow") {
    return std::make_unique<CtrlCoflow>(
        pool, work_dir + "/ctrl_coflow." +
                  std::to_string(static_cast<long long>(::getpid())) +
                  ".ckpt");
  }
  return nullptr;
}

}  // namespace corral::perfbench
