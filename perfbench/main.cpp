// cci_perfbench: runs one workload's campaign repeatedly for a fixed
// time, checks every point against reference digests, and prints the
// end-to-end metrics (untraced) or the per-layer ledger (traced) as the
// last stdout line.  See perfbench/README.md.
//
//   cci_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--reference FILE] [--commit ID] [--record]
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "sim/shard.hpp"

extern char** environ;

namespace fs = std::filesystem;
using cci::obs::Registry;
using cci::obs::Snapshot;

namespace pb {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  bool setup_only = false;  ///< time one cold setup, print it, exit
  std::string out_dir = ".bench_build/perfbench";
  std::string reference = "perfbench/reference_digests.txt";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cci_perfbench: " << why
            << "\nusage: cci_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--out-dir DIR] [--reference FILE] [--commit ID] [--record]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--record" || a == "--setup-only") {
      (a == "--record" ? o.record : o.setup_only) = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v), have_seed = true;
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--out-dir") o.out_dir = v;
      else if (a == "--reference") o.reference = v;
      else if (a == "--commit") o.commit = v;
      else usage("unknown argument " + a);
    } catch (const std::exception&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    usage("unknown workload '" + o.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// The simulator toggles a run must leave at their defaults: with any of
/// them flipped the benchmark would time a different program.
std::map<std::string, std::string> check_toggles() {
  std::map<std::string, std::string> seen;
  std::vector<std::string> bad;
  for (const char* name : {"CCI_SIM_POOLS", "CCI_SIM_INCREMENTAL", "CCI_SIM_SHARDS"}) {
    const char* v = std::getenv(name);
    seen[name] = v != nullptr ? v : "unset";
  }
  if (seen["CCI_SIM_POOLS"] == "0") bad.push_back("CCI_SIM_POOLS=0");
  if (seen["CCI_SIM_INCREMENTAL"] == "0") bad.push_back("CCI_SIM_INCREMENTAL=0");
  if (cci::sim::configured_shards() != 1) bad.push_back("CCI_SIM_SHARDS=" + seen["CCI_SIM_SHARDS"]);
  if (!bad.empty()) {
    std::cerr << "cci_perfbench: simulator toggle set away from its default:";
    for (const std::string& b : bad) std::cerr << ' ' << b;
    std::cerr << "\n";
    std::exit(2);
  }
  return seen;
}

// ---- statistics ----------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) { return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

// ---- digests -------------------------------------------------------------------

/// FNV-1a 64 over "%.17g;" of every value, in order.
std::uint64_t digest(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  char buf[40];
  for (double v : values) {
    const int n = std::snprintf(buf, sizeof buf, "%.17g;", v);
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Reference digests of `workload` at `seed`, by grid index; empty when
/// the file holds none for that pair.
std::vector<std::uint64_t> load_reference(const std::string& path, const std::string& workload,
                                          std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cci_perfbench: cannot read reference digests " << path << "\n";
    std::exit(2);
  }
  std::vector<std::uint64_t> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string w, d;
    std::uint64_t s = 0;
    std::size_t index = 0;
    if (!(is >> w >> s >> index >> d)) continue;
    if (w != workload || s != seed) continue;
    if (out.size() <= index) out.resize(index + 1, 0);
    out[index] = std::stoull(d, nullptr, 16);
  }
  return out;
}

/// Empty when the point passes; otherwise why it failed.
std::string check_point(const Workload& w, const PointRecord& rec, std::uint64_t expected,
                        bool have_expected, const char* expected_from) {
  if (!rec.error.empty()) return rec.error;
  if (rec.thread < 0) return "not executed";
  if (!w.valid(rec.values)) return "non-finite or physically impossible value";
  if (have_expected && digest(rec.values) != expected)
    return std::string("digest differs from the ") + expected_from;
  return {};
}

// ---- json ----------------------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\', o += c;
    else if (static_cast<unsigned char>(c) < 0x20) o += ' ';
    else o += c;
  }
  return o + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- per-layer ledger ----------------------------------------------------------

enum Layer : unsigned { kAll = 7, kSweep = 1, kFabric = 2, kTasks = 4 };

struct LayerMetric {
  const char* name;
  const char* unit;
  bool exact;         ///< deterministic count: must repeat bit for bit
  unsigned workloads; ///< Layer mask of the workloads that exercise it
};

const LayerMetric kLayerMetrics[] = {
    {"campaign.self_s", "s", false, kAll},
    {"campaign.busy_frac", "ratio", false, kAll},
    {"campaign.tail_s", "s", false, kAll},
    {"campaign.replay_s", "s", false, kAll},
    {"campaign.key_us", "us", false, kAll},
    {"lab.build_ms", "ms", false, kSweep},
    {"lab.compute_alone_s", "s", false, kSweep},
    {"lab.comm_alone_s", "s", false, kSweep},
    {"lab.together_s", "s", false, kSweep},
    {"fabric.run_s", "s", false, kFabric},
    {"fabric.sharded_s", "s", false, kFabric},
    {"fabric.shard_speedup", "ratio", false, kFabric},
    {"fabric.windows", "count", true, kFabric},
    {"fabric.exchanges", "count", true, kFabric},
    {"fabric.boundary_links", "count", true, kFabric},
    {"fabric.routes", "count", true, kFabric},
    {"fabric.reroutes", "count", true, kFabric},
    {"sim.events", "count", true, kAll},
    {"sim.processes_spawned", "count", true, kAll},
    {"sim.events_per_s", "1/s", false, kAll},
    {"sim.flow.resolves", "count", true, kAll},
    {"sim.flow.partial_frac", "ratio", true, kAll},
    {"sim.flow.visits_per_event", "ratio", true, kAll},
    {"sim.flow.solve_s", "s", false, kAll},
    {"sim.flow.solve_frac", "ratio", false, kAll},
    {"shard.windows_per_event", "ratio", true, kFabric},
    {"shard.messages", "count", true, kFabric},
    {"shard.spills", "count", true, kFabric},
    {"shard.exchanges", "count", true, kFabric},
    {"net.cluster_build_ms", "ms", false, kFabric},
    {"net.reroute_frac", "ratio", true, kFabric},
    {"mpi.eager_msgs", "count", true, kAll},
    {"mpi.rndv_msgs", "count", true, kAll},
    {"mpi.bytes_sent", "B", true, kAll},
    {"mpi.retransmits", "count", true, kAll},
    {"mpi.unexpected_depth_max", "count", true, kAll},
    {"runtime.app_s", "s", false, kTasks},
    {"runtime.pingpong_s", "s", false, kTasks},
    {"runtime.tasks", "count", true, kTasks},
    {"runtime.tasks_per_s", "1/s", false, kTasks},
    {"runtime.worker_polls", "count", true, kTasks},
    {"runtime.polls_per_task", "ratio", true, kTasks},
    {"obs.trace_overhead", "ratio", false, kAll},
};

unsigned workload_bit(const std::string& name) {
  return name == "paper_sweep" ? kSweep : name == "fabric_scale" ? kFabric : kTasks;
}

/// Length of the union of [a, b) intervals, clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = -1.0;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_b) {
      if (cur_b > cur_a) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) total += cur_b - cur_a;
  return total;
}

/// Self time of every span: its duration minus what its children cover.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[i] = (spans[i].t1 - spans[i].t0) - covered(kids[i], spans[i].t0, spans[i].t1);
  return out;
}

// ---- one campaign repetition ---------------------------------------------------

struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0, cpu_s = 0.0;
  std::vector<double> point_ms;
  std::vector<std::uint64_t> digests;
  std::vector<bool> passed;
  int attempted = 0, failed = 0;
  std::map<std::string, double> layers;  ///< traced reps only
};

/// Cold setups timed per untraced run: this process's own and those of
/// fresh --setup-only processes.
constexpr int kSetupSamples = 11;
/// An untraced run continues until it has timed this many points, so p90
/// always has at least 10 points beyond it.
constexpr std::size_t kMinTailPoints = 100;

struct Run {
  Options opt;
  int nproc = 1;
  std::map<std::string, std::string> toggles;
  std::vector<std::uint64_t> reference;
  std::vector<Rep> reps;
  std::vector<std::string> failures;  ///< first messages, for the record
  int jobs = 1, shards = 1, grid = 0;
  std::vector<std::pair<std::string, double>> probes;

  void fail(const std::string& msg) {
    if (failures.size() < 20) failures.push_back(msg);
  }
};

/// Per-layer numbers of one traced repetition.
std::map<std::string, double> ledger(const Workload& w, const std::vector<Span>& spans,
                                     int camp_id, int replay_id, double key_s,
                                     std::size_t points, const Snapshot& snap) {
  std::map<std::string, double> m;
  const Span& camp = spans[static_cast<std::size_t>(camp_id)];
  const double camp_dur = camp.t1 - camp.t0;
  const std::vector<double> self = self_times(spans);
  m["campaign.self_s"] = self[static_cast<std::size_t>(camp_id)];
  double busy = 0.0;
  std::map<int, double> last_end;
  std::map<std::string, double> sums;
  std::vector<double> build_ms;
  for (const Span& s : spans) {
    const double d = s.t1 - s.t0;
    sums[s.name] += d;
    if (s.name == "campaign.point" && s.parent == camp_id) {
      busy += d;
      last_end[s.thread] = std::max(last_end[s.thread], s.t1);
    }
    if (s.name == "lab.build") build_ms.push_back(d * 1e3);
  }
  const double jobs_eff = std::min<double>(w.jobs, static_cast<double>(points));
  m["campaign.busy_frac"] = busy / (jobs_eff * camp_dur);
  double first_idle = camp.t1;
  for (const auto& [thread, end] : last_end) first_idle = std::min(first_idle, end);
  m["campaign.tail_s"] = camp.t1 - first_idle;
  const Span& replay = spans[static_cast<std::size_t>(replay_id)];
  m["campaign.replay_s"] = replay.t1 - replay.t0;
  m["campaign.key_us"] = key_s / static_cast<double>(points) * 1e6;

  m["lab.build_ms"] = median(build_ms);
  m["lab.compute_alone_s"] = sums["lab.compute_alone"];
  m["lab.comm_alone_s"] = sums["lab.comm_alone"];
  m["lab.together_s"] = sums["lab.together"];
  m["fabric.run_s"] = sums["fabric.run"];
  m["fabric.sharded_s"] = sums["fabric.run_sharded"];
  m["runtime.app_s"] = sums["runtime.app"];
  m["runtime.pingpong_s"] = sums["runtime.pingpong"];

  std::map<std::string, double> counts;
  for (const PointRecord& r : w.records)
    for (const auto& [name, v] : r.counts) counts[name] += v;
  for (const char* k : {"fabric.windows", "fabric.exchanges", "fabric.boundary_links",
                        "fabric.routes", "fabric.reroutes"})
    m[k] = counts[k];
  m["net.reroute_frac"] = counts["fabric.routes"] > 0
                              ? counts["fabric.reroutes"] / counts["fabric.routes"]
                              : 0.0;

  auto val = [&snap](const char* name) { return snap.value_of(name); };
  const double events = val("sim.engine.events_dispatched");
  const double per_event = events > 0 ? 1.0 / events : 0.0;
  m["sim.events"] = events;
  m["sim.processes_spawned"] = val("sim.engine.processes_spawned");
  m["sim.events_per_s"] = busy > 0 ? events / busy : 0.0;
  m["sim.flow.resolves"] = val("sim.flow.resolves");
  m["sim.flow.partial_frac"] =
      val("sim.flow.resolves") > 0 ? val("sim.flow.resolves_partial") / val("sim.flow.resolves")
                                   : 0.0;
  m["sim.flow.visits_per_event"] = val("sim.flow.solver_flow_visits") * per_event;
  const Snapshot::Entry* solve = snap.find("sim.flow.solve_wall_us");
  m["sim.flow.solve_s"] = solve != nullptr ? solve->sum * 1e-6 : 0.0;
  m["sim.flow.solve_frac"] = busy > 0 ? m["sim.flow.solve_s"] / busy : 0.0;
  m["shard.windows_per_event"] = val("sim.shard.windows") * per_event;
  m["shard.messages"] = val("sim.shard.messages");
  m["shard.spills"] = val("sim.shard.spills");
  m["shard.exchanges"] = val("sim.shard.exchanges");
  m["mpi.eager_msgs"] = val("mpi.world.eager_msgs");
  m["mpi.rndv_msgs"] = val("mpi.world.rndv_msgs");
  m["mpi.bytes_sent"] = val("mpi.world.bytes_sent");
  m["mpi.retransmits"] = val("mpi.retransmits");
  const Snapshot::Entry* depth = snap.find("mpi.world.unexpected_depth");
  m["mpi.unexpected_depth_max"] = depth != nullptr ? depth->max : 0.0;
  const double tasks = val("runtime.sched.tasks_completed");
  m["runtime.tasks"] = tasks;
  const double rt_s = m["runtime.app_s"] + m["runtime.pingpong_s"];
  m["runtime.tasks_per_s"] = rt_s > 0 ? tasks / rt_s : 0.0;
  m["runtime.worker_polls"] = counts["runtime.worker_polls"];
  m["runtime.polls_per_task"] = tasks > 0 ? m["runtime.worker_polls"] / tasks : 0.0;
  m["sim.watchdog_trips"] = val("sim.watchdog_trips");
  // Set by the workload's probes where it has them.
  m["net.cluster_build_ms"] = 0.0;
  m["fabric.shard_speedup"] = 0.0;
  return m;
}

std::string cache_dir(const Options& o) {
  return (fs::path(o.out_dir) / "cache" /
          (o.workload + "-" + std::to_string(::getpid())))
      .string();
}

/// A campaign ready for its first dispatch.
struct Prepared {
  std::unique_ptr<Workload> w;
  std::unique_ptr<cci::core::CampaignEngine> engine;
};

/// Setup: grid generation, scenario and topology description, the
/// reference digests, a fresh cache directory and the campaign engine.
Prepared prepare(Run& run, bool traced, const std::string& dir) {
  const Options& o = run.opt;
  Prepared p;
  p.w = make_workload(o.workload, o.seed, run.nproc, traced);
  run.reference = load_reference(o.reference, o.workload, o.seed);
  fs::remove_all(dir);
  fs::create_directories(dir);
  cci::core::CampaignOptions copt;
  copt.jobs = p.w->jobs;
  copt.cache_dir = dir;
  p.engine = std::make_unique<cci::core::CampaignEngine>(copt);
  return p;
}

/// Cold setups of `count` fresh processes, one at a time: this program with
/// --setup-only, each timed from its own process entry to the point where
/// it would dispatch the first campaign.
std::vector<double> cold_setups(const Options& o, int count) {
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  std::vector<std::string> args = {exe,           "--setup-only", "--workload",  o.workload,
                                   "--seed",      std::to_string(o.seed),        "--out-dir",
                                   o.out_dir,     "--reference",  o.reference};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    int fd[2];
    if (::pipe(fd) != 0) throw std::runtime_error("setup: pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fd[1], 1);
    posix_spawn_file_actions_addclose(&fa, fd[0]);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fd[1]);
    std::string text;
    char buf[256];
    for (ssize_t n; (n = ::read(fd[0], buf, sizeof buf)) != 0;)
      if (n > 0) text.append(buf, static_cast<std::size_t>(n));
      else if (errno != EINTR) break;
    ::close(fd[0]);
    int status = 0;
    if (rc == 0)
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty())
      throw std::runtime_error("setup: a --setup-only process failed");
    out.push_back(std::stod(text));
  }
  return out;
}

void run_rep(Run& run, int index, bool traced, std::vector<Span>& trace_spans) {
  const Options& o = run.opt;
  Rep rep;
  rep.traced = traced;
  const double s0 = now_s();
  const std::string dir = cache_dir(o);
  Prepared prep = prepare(run, traced, dir);
  // The process's first setup counts from process entry.
  rep.setup_s = now_s() - (index == 0 ? 0.0 : s0);
  std::unique_ptr<Workload>& w = prep.w;
  cci::core::CampaignEngine& engine = *prep.engine;
  run.jobs = w->jobs;
  run.shards = w->shards;

  Registry& reg = Registry::process();
  if (traced) {
    reg.reset();
    reg.set_enabled(true);
    span_log().start(index);
  }
  const double t0 = now_s();
  const double c0 = cpu_seconds();
  int camp_id = -1;
  cci::core::CampaignRun result;
  {
    Scoped camp("campaign.run");
    camp_id = camp.id();
    w->campaign_span = camp_id;
    result = engine.run(*w->campaign);
  }
  rep.wall_s = now_s() - t0;
  rep.cpu_s = cpu_seconds() - c0;
  run.grid = static_cast<int>(result.grid_total);

  Snapshot snap;
  int replay_id = -1;
  double key_s = 0.0;
  if (traced) {
    snap = reg.snapshot();
    reg.set_enabled(false);
    {
      Scoped replay("campaign.replay");
      replay_id = replay.id();
      (void)engine.run(*w->campaign);
    }
    for (const cci::core::SweepPoint& p : result.points) {
      const double k0 = now_s();
      volatile std::uint64_t key = cci::core::cache_key(*w->campaign, p);
      (void)key;
      key_s += now_s() - k0;
    }
    if (w->probes && run.probes.empty()) w->probes(run.probes);
    span_log().stop();
  }

  // Correctness: every executed point against the reference digests (or,
  // for a seed without any, against this run's first repetition).
  const bool have_ref = !run.reference.empty();
  const std::vector<std::uint64_t>* expected =
      have_ref ? &run.reference : run.reps.empty() ? nullptr : &run.reps.front().digests;
  for (std::size_t i = 0; i < w->records.size(); ++i) {
    const PointRecord& rec = w->records[i];
    rep.attempted++;
    rep.point_ms.push_back((rec.t1 - rec.t0) * 1e3);
    rep.digests.push_back(rec.error.empty() ? digest(rec.values) : 0);
    const bool have = expected != nullptr && i < expected->size();
    const std::string why = check_point(*w, rec, have ? (*expected)[i] : 0, have,
                                        have_ref ? "reference" : "first repetition");
    rep.passed.push_back(why.empty());
    if (!why.empty()) {
      rep.failed++;
      run.fail("rep " + std::to_string(index) + " point " + std::to_string(i) + ": " + why);
    }
  }
  if (have_ref && run.reference.size() != w->records.size()) {
    rep.failed++;
    run.fail("reference holds " + std::to_string(run.reference.size()) + " points, grid has " +
             std::to_string(w->records.size()));
  }

  if (traced) {
    const std::vector<Span> all = span_log().spans();
    std::vector<Span> mine;
    std::map<int, int> remap;
    for (std::size_t i = 0; i < all.size(); ++i)
      if (all[i].rep == index) {
        remap[static_cast<int>(i)] = static_cast<int>(mine.size());
        mine.push_back(all[i]);
      }
    for (Span& s : mine) s.parent = remap.count(s.parent) ? remap[s.parent] : -1;
    rep.layers = ledger(*w, mine, remap[camp_id], remap[replay_id], key_s,
                        w->records.size(), snap);
    if (rep.layers["sim.watchdog_trips"] > 0) {
      rep.failed++;
      run.fail("sim.watchdog_trips > 0 in rep " + std::to_string(index));
    }
    if (rep.layers["mpi.retransmits"] != 0) {
      rep.failed++;
      run.fail("mpi.retransmits > 0 in rep " + std::to_string(index));
    }
    for (const auto& [name, v] : run.probes) rep.layers[name] = v;
    trace_spans.insert(trace_spans.end(), mine.begin(), mine.end());
  }
  fs::remove_all(dir);
  run.reps.push_back(std::move(rep));
}

/// The benchmark's own failure accounting must catch a perturbed value and
/// a throwing point.  Returns false (and records why) when it does not.
bool self_check(Run& run) {
  const Options& o = run.opt;
  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed, run.nproc, false);
  const Rep& first = run.reps.front();
  // Cheapest point of the first repetition that passed.
  std::size_t j = first.point_ms.size();
  for (std::size_t i = 0; i < first.point_ms.size(); ++i)
    if (first.passed[i] && (j == first.point_ms.size() || first.point_ms[i] < first.point_ms[j]))
      j = i;
  if (j == first.point_ms.size()) {
    run.fail("self-check: no passing point to perturb");
    return false;
  }
  const std::string dir = cache_dir(o) + "-check";
  fs::remove_all(dir);
  cci::core::CampaignOptions copt;
  copt.cache_dir = dir;
  copt.shard_count = static_cast<int>(w->records.size());
  copt.shard_index = static_cast<int>(j);
  cci::core::CampaignEngine engine(copt);
  (void)engine.run(*w->campaign);
  bool ok = true;
  PointRecord rec = w->records[j];
  const std::uint64_t want = first.digests[j];
  if (!check_point(*w, rec, want, true, "first repetition").empty()) {
    run.fail("self-check: point " + std::to_string(j) + " failed unperturbed");
    ok = false;
  }
  rec.values.at(0) = std::nextafter(rec.values[0], HUGE_VAL);
  if (check_point(*w, rec, want, true, "first repetition").empty()) {
    run.fail("self-check: a perturbed value went undetected");
    ok = false;
  }
  std::unique_ptr<Workload> thrower = make_workload(o.workload, o.seed, run.nproc, false);
  thrower->inject_throw_at = static_cast<long>(j);
  fs::remove_all(dir);
  cci::core::CampaignEngine engine2(copt);
  (void)engine2.run(*thrower->campaign);
  if (check_point(*thrower, thrower->records[j], want, true, "first repetition").empty()) {
    run.fail("self-check: an injected throw went undetected");
    ok = false;
  }
  fs::remove_all(dir);
  return ok;
}

// ---- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t n;
};

void write_chrome(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "") << "{\"name\": " << jstr(s.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread << ", \"ts\": " << jnum(s.t0 * 1e6)
       << ", \"dur\": " << jnum((s.t1 - s.t0) * 1e6) << ", \"args\": {\"rep\": " << s.rep
       << ", \"point\": " << s.point << "}}";
  }
  os << "\n]}\n";
}

void write_layer_table(const std::string& path, const std::vector<Span>& spans) {
  // Spans of several reps: parents were remapped per rep, so recompute per
  // rep before summing.
  std::map<std::string, std::tuple<std::size_t, double, double>> rows;
  std::map<int, std::vector<Span>> by_rep;
  for (const Span& s : spans) by_rep[s.rep].push_back(s);
  for (auto& [rep, list] : by_rep) {
    const std::vector<double> self = self_times(list);
    for (std::size_t i = 0; i < list.size(); ++i) {
      auto& [count, total, self_s] = rows[list[i].name];
      ++count;
      total += list[i].t1 - list[i].t0;
      self_s += self[i];
    }
  }
  std::ofstream os(path);
  os << "span\tcount\ttotal_s\tself_s\n";
  for (const auto& [name, row] : rows)
    os << name << '\t' << std::get<0>(row) << '\t' << jnum(std::get<1>(row)) << '\t'
       << jnum(std::get<2>(row)) << '\n';
}

int main_impl(int argc, char** argv) {
  Run run;
  run.opt = parse(argc, argv);
  run.toggles = check_toggles();
  const long np = ::sysconf(_SC_NPROCESSORS_ONLN);
  run.nproc = np > 0 ? static_cast<int>(np) : 1;
  const Options& o = run.opt;

  if (o.setup_only) {
    // Same path as the first repetition of a run, up to its first dispatch.
    const std::string dir = cache_dir(o);
    (void)prepare(run, false, dir);
    const double setup = now_s();
    fs::remove_all(dir);
    std::cout << jnum(setup) << std::endl;
    return 0;
  }

  std::vector<Span> trace_spans;
  if (o.record) {
    run_rep(run, 0, false, trace_spans);
    const Rep& rep = run.reps.front();
    if (rep.failed > 0) {
      for (const std::string& f : run.failures) std::cerr << f << "\n";
      return 1;
    }
    for (std::size_t i = 0; i < rep.digests.size(); ++i)
      std::cout << o.workload << ' ' << o.seed << ' ' << i << ' ' << hex(rep.digests[i]) << "\n";
    return 0;
  }

  // Untraced: repeat the campaign until the budget is spent.  Traced:
  // alternate untraced and traced repetitions (the ratio of their walls is
  // the tracing overhead), with at least two traced ones for the
  // exactness check.
  const double start = now_s();
  int traced_reps = 0;
  std::size_t points = 0;
  for (int i = 0;; ++i) {
    const bool done = now_s() - start >= o.seconds;
    if (i > 0 && done &&
        (o.trace ? traced_reps >= 2 && i % 2 == 0 : points >= kMinTailPoints))
      break;
    const bool traced = o.trace && i % 2 == 1;
    run_rep(run, i, traced, trace_spans);
    traced_reps += traced;
    points += run.reps.back().point_ms.size();
  }
  std::vector<double> setup;
  if (!o.trace) {
    setup = cold_setups(o, kSetupSamples - 1);
    setup.push_back(run.reps.front().setup_s);
  }
  bool correct = self_check(run);

  int attempted = 0, failed = 0;
  for (const Rep& r : run.reps) {
    attempted += r.attempted;
    failed += r.failed;
  }

  std::vector<Metric> metrics;
  std::vector<std::string> mismatches;
  const unsigned bit = workload_bit(o.workload);
  if (!o.trace) {
    // The median point is taken within each campaign, whose points are the
    // same work every time, then medianed over campaigns: the pooled median
    // jumps between two neighbouring points' costs as the number of
    // campaigns in a run changes.  The tail is p90 of the pooled points
    // (at least kMinTailPoints of them).
    std::vector<double> wall, cpu, p50, pooled;
    for (const Rep& r : run.reps) {
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      p50.push_back(median(r.point_ms));
      pooled.insert(pooled.end(), r.point_ms.begin(), r.point_ms.end());
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const std::size_t n = run.reps.size();
    metrics = {{"wall_s", median(wall), "s", n},
               {"cpu_s", median(cpu), "s", n},
               {"setup_s", median(setup), "s", setup.size()},
               {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB", 1},
               {"point_p50_ms", median(p50), "ms", pooled.size()},
               {"point_tail_ms", quantile(pooled, 0.9), "ms", pooled.size()}};
  } else {
    std::vector<const Rep*> traced;
    std::vector<double> untraced_wall, traced_wall;
    for (const Rep& r : run.reps) {
      (r.traced ? traced_wall : untraced_wall).push_back(r.wall_s);
      if (r.traced) traced.push_back(&r);
    }
    for (const LayerMetric& lm : kLayerMetrics) {
      const std::string name = lm.name;
      if (name == "obs.trace_overhead") {
        metrics.push_back({name, median(traced_wall) / median(untraced_wall), lm.unit,
                           traced_wall.size()});
        continue;
      }
      std::vector<double> vals;
      for (const Rep* r : traced) vals.push_back(r->layers.at(name));
      if (lm.exact) {
        for (double v : vals)
          if (v != vals.front())
            mismatches.push_back(name + ": " + jnum(vals.front()) + " vs " + jnum(v));
        metrics.push_back({name, vals.front(), lm.unit, vals.size()});
      } else {
        metrics.push_back({name, median(vals), lm.unit, vals.size()});
      }
    }
    attempted += 1;
    if (!mismatches.empty()) {
      failed += 1;
      for (const std::string& m : mismatches) run.fail("count not exact across traced runs: " + m);
    }
  }
  correct = correct && failed == 0;
  const double error_rate = static_cast<double>(failed) / static_cast<double>(attempted);

  // Result record with provenance.
  const fs::path out(o.out_dir);
  fs::create_directories(out / "results");
  const std::string stem = o.workload + ".seed" + std::to_string(o.seed) + ".trace" +
                           std::to_string(o.trace ? 1 : 0);
  std::ostringstream prov;
  prov << "{\"nproc\": " << run.nproc << ", \"build_type\": " << jstr(PB_BUILD_TYPE)
       << ", \"cxx_flags\": " << jstr(PB_CXX_FLAGS) << ", \"compiler\": " << jstr(PB_COMPILER)
       << ", \"commit\": " << jstr(o.commit) << ", \"jobs\": " << run.jobs
       << ", \"shards\": " << run.shards;
  for (const auto& [k, v] : run.toggles) prov << ", " << jstr(k) << ": " << jstr(v);
  prov << "}";
  {
    std::ofstream rec(out / "results" / (stem + ".json"));
    rec << "{\"workload\": " << jstr(o.workload) << ", \"seed\": " << o.seed
        << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"seconds\": " << jnum(o.seconds)
        << ",\n \"provenance\": " << prov.str() << ",\n \"grid_points\": " << run.grid
        << ", \"reference_seed\": " << (run.reference.empty() ? "false" : "true")
        << ", \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"error_rate\": " << jnum(error_rate)
        << ",\n \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      bool applies = true;
      for (const LayerMetric& lm : kLayerMetrics)
        if (m.name == lm.name) applies = (lm.workloads & bit) != 0;
      rec << (i ? ",\n  " : "\n  ") << jstr(m.name) << ": {\"value\": " << jnum(m.value)
          << ", \"unit\": " << jstr(m.unit) << ", \"n\": " << m.n
          << ", \"applies\": " << (applies ? "true" : "false") << "}";
    }
    rec << "},\n \"reps\": [";
    for (std::size_t i = 0; i < run.reps.size(); ++i) {
      const Rep& r = run.reps[i];
      rec << (i ? ",\n  " : "\n  ") << "{\"traced\": " << (r.traced ? "true" : "false")
          << ", \"setup_s\": " << jnum(r.setup_s) << ", \"wall_s\": " << jnum(r.wall_s)
          << ", \"cpu_s\": " << jnum(r.cpu_s) << ", \"points\": " << r.attempted
          << ", \"failed\": " << r.failed << ", \"point_ms\": [";
      for (std::size_t k = 0; k < r.point_ms.size(); ++k)
        rec << (k ? ", " : "") << jnum(r.point_ms[k]);
      rec << "]}";
    }
    rec << "],\n \"failures\": [";
    for (std::size_t i = 0; i < run.failures.size(); ++i)
      rec << (i ? ", " : "") << jstr(run.failures[i]);
    rec << "]}\n";
  }
  if (o.trace) {
    fs::create_directories(out / "traces");
    write_chrome((out / "traces" / (stem + ".json")).string(), trace_spans);
    write_layer_table((out / "traces" / (stem + ".layers.tsv")).string(), trace_spans);
  }

  // Human-readable lines, then the result as the last stdout line.
  std::cout << "perfbench " << o.workload << " seed=" << o.seed << " trace=" << o.trace
            << " reps=" << run.reps.size() << " grid=" << run.grid << " provenance=" << prov.str()
            << "\n";
  for (const Metric& m : metrics)
    std::printf("  %-28s %16.6g %-6s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(), m.n);
  std::printf("  %-28s %16.6g %-6s (%d failed of %d attempted)\n", "error_rate", error_rate,
              "ratio", failed, attempted);
  for (const std::string& f : run.failures) std::cout << "  FAIL " << f << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << jstr(metrics[i].name) << ": {\"value\": "
              << jnum(metrics[i].value) << ", \"unit\": " << jstr(metrics[i].unit) << "}";
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cci_perfbench: " << e.what() << "\n";
    return 1;
  }
}
