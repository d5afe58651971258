// The control plane under the exec:: determinism contract: a full
// closed-loop run — cache keys, hit sequences, reports, exported traces and
// metrics — must be byte-identical at pool widths 1, 2 and 8.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ctrl/control_loop.h"
#include "ctrl/report.h"
#include "ctrl/service.h"
#include "exec/exec.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace corral {
namespace {

constexpr int kWidths[] = {1, 2, 8};

ControlLoopConfig loop_config() {
  ControlLoopConfig config;
  config.cluster.racks = 5;
  config.cluster.machines_per_rack = 10;
  config.cluster.slots_per_machine = 8;
  config.cluster.nic_bandwidth = 2.5 * kGbps;
  config.epochs = 6;
  config.warmup_days = 14;
  config.outages = {{2, 1}};
  return config;
}

W1Config fleet_config() {
  W1Config config;
  config.num_jobs = 6;
  config.task_scale = 0.2;
  return config;
}

struct LoopArtifacts {
  ControlLoopResult result;
  std::string report_json;
  std::string trace_json;
  std::string timeline_csv;
  std::string metrics_json;
};

LoopArtifacts run_at_width(int width) {
  exec::ThreadPool pool(width);
  obs::TracerOptions options;
  options.level = obs::TraceLevel::kTasks;
  obs::Tracer tracer(options);
  obs::MetricsRegistry metrics;

  ServiceConfig config;
  config.loop = loop_config();
  config.loop.pool = &pool;
  config.loop.tracer = &tracer;
  config.loop.metrics = &metrics;
  std::vector<ServiceTenant> fleet =
      make_service_fleet(fleet_config(), config.loop.warmup_days,
                         config.loop.epochs, config.loop.seed, /*tenants=*/1);

  LoopArtifacts artifacts;
  artifacts.result = std::move(
      run_control_service(std::move(fleet), config).tenants[0].loop);
  artifacts.report_json = ctrl_report_json_string(artifacts.result);
  artifacts.trace_json = obs::chrome_trace_string(tracer);
  artifacts.timeline_csv = obs::timeline_csv_string(tracer);
  std::ostringstream metrics_out;
  obs::write_metrics_json(metrics_out, metrics);
  artifacts.metrics_json = metrics_out.str();
  return artifacts;
}

TEST(CtrlDeterminism, LoopIsByteIdenticalAcrossWidths) {
  const LoopArtifacts reference = run_at_width(1);
  // The serial run must itself be meaningful: hits, an outage miss, a
  // non-empty trace.
  EXPECT_GT(reference.result.cache.hits, 0u);
  EXPECT_FALSE(reference.result.epochs[2].cache_hit);
  EXPECT_NE(reference.trace_json.find("\"ctrl\""), std::string::npos);

  for (int width : kWidths) {
    const LoopArtifacts run = run_at_width(width);
    ASSERT_EQ(run.result.epochs.size(), reference.result.epochs.size());
    for (std::size_t e = 0; e < run.result.epochs.size(); ++e) {
      const EpochReport& a = reference.result.epochs[e];
      const EpochReport& b = run.result.epochs[e];
      EXPECT_EQ(a.cache_key, b.cache_key) << "epoch " << e << " width "
                                          << width;
      EXPECT_EQ(a.cache_hit, b.cache_hit) << "epoch " << e;
      EXPECT_EQ(a.replan_cost_evals, b.replan_cost_evals) << "epoch " << e;
      EXPECT_EQ(a.mean_prediction_error, b.mean_prediction_error)
          << "epoch " << e;
      EXPECT_EQ(a.predicted_makespan, b.predicted_makespan) << "epoch " << e;
      EXPECT_EQ(a.realized_makespan, b.realized_makespan)
          << "epoch " << e << " width " << width;
    }
    // Byte-identical artifacts: the report JSON, the merged Chrome trace,
    // the timeline CSV and the metrics snapshot.
    EXPECT_EQ(run.report_json, reference.report_json) << "width " << width;
    EXPECT_EQ(run.trace_json, reference.trace_json) << "width " << width;
    EXPECT_EQ(run.timeline_csv, reference.timeline_csv) << "width " << width;
    EXPECT_EQ(run.metrics_json, reference.metrics_json) << "width " << width;
  }
}

TEST(CtrlDeterminism, RerunAtSameWidthIsIdentical) {
  const LoopArtifacts a = run_at_width(2);
  const LoopArtifacts b = run_at_width(2);
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

}  // namespace
}  // namespace corral
