// Shared pieces of cci_perfbench: the host clock, the span log of
// the traced run, per-point records, and the workload description the
// benchmark times.  Everything here observes the cci libraries from outside:
// spans wrap calls into a layer, nothing under src/ is instrumented.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"

namespace pb {

/// Host seconds since process entry (steady clock).
double now_s();

/// Small, stable index of the calling thread (0 = first thread to ask).
int thread_index();

/// One call into a layer, timed from outside.  Times are now_s() seconds.
struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;  ///< id (index) of the enclosing span, -1 for roots
  int thread = 0;
  long point = -1;  ///< campaign point index; a point's phase spans share it
  int rep = 0;
};

/// In-memory span store for the traced run.  When off, open() returns -1
/// and nothing is recorded.
class SpanLog {
 public:
  void start(int rep) {
    std::lock_guard<std::mutex> lock(mu_);
    on_ = true;
    rep_ = rep;
  }
  void stop() {
    std::lock_guard<std::mutex> lock(mu_);
    on_ = false;
  }
  int open(const char* name, int parent, long point);
  void close(int id);
  /// Copy of every span recorded so far (call with no spans open).
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  bool on_ = false;
  int rep_ = 0;
};

SpanLog& span_log();

/// The span enclosing calls made on this thread (the current point span);
/// phase spans use it as their parent.
int& current_span();

/// RAII span around one call into a layer.
class Scoped {
 public:
  Scoped(const char* name, long point = -1)
      : id_(span_log().open(name, current_span(), point)) {}
  ~Scoped() { span_log().close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

/// What one executed campaign point produced.
struct PointRecord {
  double t0 = 0.0;  ///< host time around the wrapper's call into the layer
  double t1 = 0.0;
  int thread = -1;
  std::string error;  ///< non-empty when the call threw
  /// Simulated results, %.17g-digested for the correctness check.
  std::vector<double> values;
  /// Deterministic work counts the layer reported (not digested).
  std::vector<std::pair<const char*, double>> counts;
};

/// One workload instance: its campaign (built from the seed) plus the
/// per-point records its evaluator wrapper fills.
struct Workload {
  int jobs = 1;
  int shards = 1;  ///< run_sharded() shard count (fabric_scale)
  /// Traced run: per-point registries and the layers' phase-by-phase calls.
  bool traced = false;
  std::unique_ptr<cci::core::Campaign> campaign;
  /// Per-point body: calls into the layer, returns the simulated values
  /// (the first ones are the campaign's cached columns).
  std::function<std::vector<double>(const cci::core::SweepPoint&, PointRecord&)> body;
  /// Physical plausibility of one point's values.
  std::function<bool(const std::vector<double>&)> valid;
  std::vector<PointRecord> records;  ///< indexed by grid point
  int campaign_span = -1;            ///< parent of the point spans
  long inject_throw_at = -1;         ///< self-check: this point throws
  /// Extra traced-run probes: named per-layer values appended to `out`.
  std::function<void(std::vector<std::pair<std::string, double>>& out)> probes;
};

/// Build a workload from its name and seed; nullptr for an unknown name.
/// `traced` selects the phase-by-phase call path where a layer offers one.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        int nproc, bool traced);

/// Names accepted by make_workload().
const std::vector<std::string>& workload_names();

}  // namespace pb
