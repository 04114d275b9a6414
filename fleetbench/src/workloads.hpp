// The three workloads and the traced in-process re-drive they share.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/matrix.hpp"
#include "core/streaming.hpp"

namespace fleetbench {

/// Closed loop: 2 connections x 32 nodes of 32 sensors against csmd.
void run_fleet_steady(const Options& opts, Report& report);
/// Open loop: 8 nodes of 128 sensors under drift-triggered retraining.
void run_fleet_drift(const Options& opts, Report& report);
/// Batch job, no daemon: refit and re-drive a CSMR capture of 8 x 512.
void run_replay_refit(const Options& opts, Report& report);

/// How a workload registers its nodes with the engine.
enum class Registration { kPackId, kInlineRecord, kRefit };

/// The fixed input the traced run re-drives: a CSMR capture of the
/// workload's generated batches (in push order) plus each node's training
/// matrix, in capture node order.
struct RedriveInput {
  std::filesystem::path capture;
  std::vector<csm::common::Matrix> train;
  Registration registration = Registration::kPackId;
  csm::core::StreamOptions stream;
};

/// Re-drives `input` in-process through the calls csmd makes, in its
/// order (replay -> net -> core -> stats), once untraced and once traced,
/// and appends every per-layer metric the re-drive yields to `report`.
/// Writes the span file under opts.trace_dir.
void redrive(const Options& opts, const RedriveInput& input, Report& report);

}  // namespace fleetbench
