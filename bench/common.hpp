// Shared helpers for the cci_bench figures: the banner and the
// environment-driven observability hookup.  Sweep value lists live in
// core/campaign.hpp (core::paper_core_counts(), paper_message_sizes()).
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/interference_lab.hpp"
#include "core/result_io.hpp"
#include "obs/session.hpp"
#include "trace/metrics_table.hpp"
#include "trace/table.hpp"

namespace cci::bench {

/// Standard banner: which paper element the figure regenerates.
inline void banner(const std::string& figure, const std::string& what) {
  std::cout << "=== " << figure << " — " << what << " ===\n";
  std::cout << "(simulated cluster; see EXPERIMENTS.md for paper-vs-measured)\n\n";
}

/// Per-bench observability hookup, driven entirely by the environment:
///   CCI_TRACE=<path>    Chrome trace (written by the Session destructor)
///                       plus metrics; records land in "<path>.records.json"
///                       unless CCI_RESULTS overrides them.
///   CCI_METRICS=1       metrics only: the end-of-run metrics_table is
///                       printed on exit (no trace file needed).
///   CCI_RESULTS=<path>  append one JSON record per write_record() call.
/// With none of the variables set, everything is a no-op.
class BenchObs {
 public:
  explicit BenchObs(std::string bench_name)
      : bench_(std::move(bench_name)), session_(obs::Session::from_env()) {
    if (const char* results = std::getenv("CCI_RESULTS")) {
      results_path_ = results;
    } else if (session_.tracing()) {
      results_path_ = session_.path() + ".records.json";
    }
    if (!results_path_.empty()) obs::Registry::global().set_enabled(true);
  }

  /// Append one JSON record (bench name + fields + current metrics snapshot).
  void write_record(const std::vector<std::pair<std::string, double>>& fields) {
    if (results_path_.empty()) return;
    std::ofstream os(results_path_, std::ios::app);
    if (!os) return;
    auto snap = obs::Registry::global().snapshot();
    core::write_bench_json(os, bench_, fields, &snap);
    recorded_ = true;
  }

  ~BenchObs() {
    // CCI_METRICS=1 with no trace file and no results path used to enable
    // collection and then silently drop everything; now every bench emits
    // the end-of-run metrics_table so metrics-only runs have an output.
    if (session_.active() && !session_.tracing() && results_path_.empty() &&
        obs::Registry::global().enabled()) {
      std::cout << "\n[cci-obs] end-of-run metrics (" << bench_ << "):\n";
      trace::metrics_table(obs::Registry::global().snapshot()).print(std::cout);
    }
    if (recorded_)
      std::cerr << "[cci-obs] bench records appended to " << results_path_ << "\n";
  }

  BenchObs(const BenchObs&) = delete;
  BenchObs& operator=(const BenchObs&) = delete;

 private:
  std::string bench_;
  obs::Session session_;
  std::string results_path_;
  bool recorded_ = false;
};

}  // namespace cci::bench
