// The workloads and what a run of one reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the store; removed by the caller.
  std::string work_dir;
  /// Where the traced run writes its chrome trace.
  std::string trace_path;
  /// Input size of the prebuilt log (2^20 for every measured run; the
  /// benchmark's own tests shrink it).
  std::uint64_t leaves = std::uint64_t{1} << 20;
  /// Test hook: corrupts one response of the named kind before it is
  /// verified ("proof_byte", "consistency_old_root", "sct_key",
  /// "entry_leaf"), so the tests can prove each check fails the run.
  std::string inject;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The metrics of the result line: end-to-end untraced, per-layer traced.
  MetricTable metrics;
  /// Every other named figure of the run (the per-workload metrics of
  /// the layer table, digests, sample counts), printed before the result.
  MetricTable detail;
  std::vector<std::string> notes;
  /// Per-layer metrics whose obs counter the program does not export:
  /// reported absent, never as zero.
  std::vector<std::string> absent;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

/// 0 only for a correct run with no failed operation.
inline int exit_status(const RunResult& result) {
  return result.correct && result.failed == 0 ? 0 : 1;
}

/// The operation classes of the wire workloads.
enum Op : int { kGetSth = 0, kGetEntries = 1, kInclusion = 2, kConsistency = 3, kAddPreChain = 4, kAddChain = 5 };

RunResult run_monitor_read(const RunOptions& options);
RunResult run_ca_submit(const RunOptions& options);
RunResult run_paper_pipeline(const RunOptions& options);

/// The per-layer metric names every traced run prints (a layer the
/// workload does not exercise reads 0).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Fills every per-layer metric `result` lacks with 0 (layer not
/// exercised by this workload).
void complete_per_layer(RunResult& result);

}  // namespace perfbench
