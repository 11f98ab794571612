// itvbench: runs one repetition of one benchmark workload and prints its
// record as a single JSON line on stdout (run.py aggregates repetitions).
//
//   itvbench --workload vod-open --seed 7 [--trace-out t.json]
//
// --trace-out makes the run the traced one: one Chrome-trace span per RPC,
// written to the named file.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "itvbench/src/workloads.h"
#include "src/common/json.h"
#include "src/common/strings.h"

namespace {

std::string Num(double v) { return itv::StrFormat("%.17g", v); }

std::string Str(const std::string& s) {
  return "\"" + itv::json::Escape(s) + "\"";
}

std::string ToJson(const itvbench::Record& r) {
  std::string out = "{";
  out += "\"workload\":" + Str(r.workload);
  out += ",\"seed\":" + std::to_string(r.seed);
  out += std::string(",\"traced\":") + (r.traced ? "true" : "false");
  out += ",\"inputs_digest\":" + Str(r.inputs_digest);
  out += ",\"next_seed_digest\":" + Str(r.next_seed_digest);
  out += ",\"settops\":" + std::to_string(r.settops);
  out += ",\"servers\":" + std::to_string(r.servers);
  out += ",\"host\":{\"setup_cpu_s\":" + Num(r.setup_cpu_s) +
         ",\"window_cpu_s\":" + Num(r.window_cpu_s) +
         ",\"rss_before_settops_kib\":" + Num(r.rss_before_settops_kib) +
         ",\"rss_with_community_kib\":" + Num(r.rss_with_community_kib) +
         ",\"reference_cpu_s\":" + Num(r.reference_cpu_s) +
         ",\"reference_laps\":" + std::to_string(r.reference_laps) + "}";
  out += ",\"sim\":{";
  bool first = true;
  for (const auto& [name, value] : r.sim) {
    out += (first ? "" : ",") + Str(name) + ":" + Num(value);
    first = false;
  }
  out += "},\"ledger\":[";
  first = true;
  for (const itvbench::LedgerRow& row : r.ledger) {
    out += std::string(first ? "" : ",") + "{\"method\":" + Str(row.method) +
           ",\"bg_per_server_s\":" + Num(row.bg_per_server_s) +
           ",\"fg_per_open\":" + Num(row.fg_per_open) +
           ",\"fg_residual\":" + Num(row.fg_residual) +
           ",\"fg_count\":" + std::to_string(row.fg_count) + "}";
    first = false;
  }
  out += "],\"checks\":[";
  first = true;
  for (const itvbench::Check& c : r.checks) {
    out += std::string(first ? "" : ",") + "{\"name\":" + Str(c.name) +
           ",\"ok\":" + (c.ok ? "true" : "false") +
           ",\"detail\":" + Str(c.detail) + "}";
    first = false;
  }
  out += "],\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"spans_recorded\":" + std::to_string(r.spans_recorded);
  out += ",\"spans_skipped\":" + std::to_string(r.spans_skipped);
  out += "}";
  return out;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: itvbench --workload NAME --seed N [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  itvbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else {
      Usage();
    }
  }
  bool known = false;
  for (const std::string& name : itvbench::WorkloadNames()) {
    known |= name == options.workload;
  }
  if (!known) {
    Usage();
  }
  itvbench::Record record = itvbench::RunWorkload(options);
  std::printf("%s\n", ToJson(record).c_str());
  return 0;
}
