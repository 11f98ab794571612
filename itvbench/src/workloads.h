// The benchmark's three seeded workloads on the simulated ITV cluster
// (see itvbench/README.md for what each measures and why).
//
// A run is one repetition of one workload: set-up (boot, settops, initial
// streams), then the measured windows, then output checks. Everything the
// run measures lands in a Record; main.cc prints it as one JSON object and
// run.py aggregates repetitions.

#ifndef ITVBENCH_SRC_WORKLOADS_H_
#define ITVBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace itvbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  // Non-empty: the traced run, with one Chrome-trace span per RPC written
  // here as trace JSON.
  std::string trace_out;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

// One method's row in the foreground/background ledger.
struct LedgerRow {
  std::string method;         // "MediaManagement.Open"
  double bg_per_server_s = 0; // Background requests per server per sim s.
  double fg_per_open = 0;     // Foreground requests per open (clamped >= 0).
  double fg_residual = 0;     // Unclamped residual (negative = clamped).
  uint64_t fg_count = 0;      // Raw requests in the foreground window.
};

struct Record {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  std::string inputs_digest;     // Digest of this seed's generated inputs.
  std::string next_seed_digest;  // Same generator, seed + 1.
  size_t settops = 0;
  size_t servers = 0;

  // Host measurements (vary run to run).
  double setup_cpu_s = 0;
  double window_cpu_s = 0;
  double rss_before_settops_kib = 0;
  double rss_with_community_kib = 0;
  double reference_cpu_s = 0;  // Median reference lap, per 1M events.
  size_t reference_laps = 0;    // Laps that median is over.

  // Deterministic for a given seed: sim-time metrics, message counts and
  // the sample/base counts behind every ratio.
  std::map<std::string, double> sim;
  std::vector<LedgerRow> ledger;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Check> checks;

  // Traced run only.
  uint64_t spans_recorded = 0;
  uint64_t spans_skipped = 0;
};

// Known workload names, in report order.
std::vector<std::string> WorkloadNames();

// Runs one repetition; fatal on an unknown workload name.
Record RunWorkload(const RunOptions& options);

}  // namespace itvbench

#endif  // ITVBENCH_SRC_WORKLOADS_H_
