// The three perfbench workloads, each a batch campaign generated from the
// workload seed.  The simulator only sees the generated scenarios; every
// call into a layer goes through the evaluator wrapper below, which times
// it from outside and records the simulated values for the digest check.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/fabric_lab.hpp"
#include "core/interference_lab.hpp"
#include "kernels/stream.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "runtime/apps.hpp"
#include "runtime/rt_pingpong.hpp"

namespace pb {

using cci::core::SweepPoint;
namespace core = cci::core;
namespace hw = cci::hw;
namespace net = cci::net;
namespace rt = cci::runtime;

namespace {

const auto kEntry = std::chrono::steady_clock::now();

/// run_sharded() shard count.  Fixed rather than derived from nproc:
/// sharded results depend on the carve, so the reference digests hold for
/// one shard count on every host.
constexpr int kFabricShards = 4;
/// Generated fabric rounds (4 sharded + 6 serial scenarios each).
constexpr int kFabricRounds = 2;

/// SplitMix64: portable, so one seed gives the same inputs everywhere
/// (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

bool finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

/// Wrap every point: time the call into the layer, catch what it throws,
/// keep the values for the digest and hand the campaign its columns.
void install_evaluator(Workload& w, std::string id) {
  w.records.assign(w.campaign->spec().point_count(), PointRecord{});
  Workload* wp = &w;
  w.campaign->evaluator(std::move(id), [wp](const SweepPoint& p) {
    PointRecord& rec = wp->records.at(p.index);
    rec.thread = thread_index();
    current_span() = wp->campaign_span;
    {
      Scoped span("campaign.point", static_cast<long>(p.index));
      current_span() = span.id();
      rec.t0 = now_s();
      try {
        if (static_cast<long>(p.index) == wp->inject_throw_at)
          throw std::runtime_error("injected failure");
        if (wp->traced) {
          // A registry per point: its fractional counters (the worker poll
          // integral) then sum in grid order, not in thread-merge order.
          cci::obs::Registry point_reg;
          point_reg.set_enabled(true);
          {
            cci::obs::Registry::ScopedThreadLocal tls(point_reg);
            rec.values = wp->body(p, rec);
          }
          rec.counts.emplace_back("runtime.worker_polls",
                                  point_reg.snapshot().value_of("runtime.worker.polls"));
          cci::obs::Registry::global().merge_from(point_reg);
        } else {
          rec.values = wp->body(p, rec);
        }
      } catch (const std::exception& e) {
        rec.error = std::string("threw: ") + e.what();
      } catch (...) {
        rec.error = "threw a non-standard exception";
      }
      rec.t1 = now_s();
    }
    current_span() = -1;
    std::vector<double> out(wp->campaign->column_count(),
                            std::numeric_limits<double>::quiet_NaN());
    for (std::size_t i = 0; i < std::min(out.size(), rec.values.size()); ++i)
      out[i] = rec.values[i];
    return out;
  });
}

void add_columns(core::Campaign& c, const std::vector<std::string>& names) {
  for (const std::string& n : names) c.column(n, core::Campaign::Metric{});
}

void push_stats(std::vector<double>& v, const cci::trace::Stats& s) {
  v.insert(v.end(), {s.median, s.decile1, s.decile9, s.mean});
}

bool ordered_stats(const std::vector<double>& v, std::size_t at) {
  return v[at + 1] <= v[at] && v[at] <= v[at + 2];
}

// ---- paper_sweep -------------------------------------------------------------

/// §2.1 side-by-side protocol: STREAM triad on N cores next to a ping-pong,
/// comm thread and data near/far from the NIC, 4 B and 64 MB messages, on
/// henri and bora (both 36 cores, so one core-count axis serves both).
std::unique_ptr<Workload> paper_sweep(std::uint64_t seed, int nproc, bool traced) {
  auto w = std::make_unique<Workload>();
  w->jobs = std::clamp(nproc - 1, 1, 3);

  const std::vector<hw::MachineConfig> machines = {hw::MachineConfig::henri(),
                                                   hw::MachineConfig::bora()};
  core::Scenario base;
  base.kernel = cci::kernels::triad_traits();
  base.pingpong_iterations = 30;
  base.compute_repetitions = 3;
  base.target_pass_seconds = 0.01;
  base.seed = seed;
  using core::Placement;
  const std::vector<Placement> both = {Placement::kNearNic, Placement::kFarFromNic};
  core::SweepSpec spec(base);
  spec.seed_policy(core::SeedPolicy::kPerPoint)
      .axis<std::size_t>(
          "machine", {0, 1},
          [machines](core::Scenario& s, const std::size_t& i) { s.machine = machines[i]; },
          [machines](const std::size_t& i) { return machines[i].name; })
      .cores("cores", core::paper_core_counts(machines[0].total_cores() - 1))
      .comm_thread_placement("comm", both)
      .data_placement("data", both)
      .axis<std::size_t>(
          "bytes", {4, std::size_t{64} << 20},
          [](core::Scenario& s, const std::size_t& b) {
            s.message_bytes = b;
            if (b >= (std::size_t{1} << 20)) {
              // As fig. 4b: few long transfers, and a compute phase long
              // enough for them to complete next to it.
              s.pingpong_iterations = 4;
              s.pingpong_warmup = 1;
              s.target_pass_seconds = 0.05;
            }
          },
          [](const std::size_t& b) { return std::to_string(b); });
  w->campaign = std::make_unique<core::Campaign>("perfbench_paper_sweep", std::move(spec));
  add_columns(*w->campaign, {"ca_pass_s", "ca_core_Bps", "ca_stall", "la_p50", "la_d1",
                             "la_d9", "la_mean", "ba_Bps", "ct_pass_s", "ct_core_Bps",
                             "ct_stall", "lt_p50", "lt_d1", "lt_d9", "lt_mean", "bt_Bps"});

  w->body = [traced](const SweepPoint& p, PointRecord&) {
    const long idx = static_cast<long>(p.index);
    std::unique_ptr<core::InterferenceLab> lab;
    {
      Scoped s("lab.build", idx);
      lab = std::make_unique<core::InterferenceLab>(p.scenario);
    }
    core::SideBySideResult r;
    if (traced) {
      // The phase primitives, in the order run() calls them: the digest
      // check then proves they reproduce run() bit for bit.
      {
        Scoped s("lab.compute_alone", idx);
        r.compute_alone = lab->run_compute_alone();
      }
      {
        Scoped s("lab.comm_alone", idx);
        r.comm_alone = lab->run_comm_alone(1000);
      }
      {
        Scoped s("lab.together", idx);
        lab->run_together(r.compute_together, r.comm_together, 2000);
      }
    } else {
      r = lab->run();
    }
    std::vector<double> v;
    auto compute = [&v](const core::ComputePhase& c) {
      v.insert(v.end(),
               {c.pass_duration.median, c.per_core_bandwidth.median, c.mem_stall_fraction});
    };
    auto comm = [&v](const core::CommPhase& c) {
      push_stats(v, c.latency);
      v.push_back(c.bandwidth.median);
    };
    compute(r.compute_alone);
    comm(r.comm_alone);
    compute(r.compute_together);
    comm(r.comm_together);
    return v;
  };
  w->valid = [](const std::vector<double>& v) {
    if (v.size() != 16 || !finite(v)) return false;
    for (std::size_t at : {std::size_t{0}, std::size_t{8}})
      if (v[at] < 0.0 || v[at + 1] < 0.0 || v[at + 2] < 0.0 || v[at + 2] > 1.0) return false;
    for (std::size_t at : {std::size_t{3}, std::size_t{11}})
      if (v[at + 1] <= 0.0 || !ordered_stats(v, at) || v[at + 4] <= 0.0) return false;
    return true;
  };
  install_evaluator(*w, "perfbench.lab.v1");
  return w;
}

// ---- fabric_scale ------------------------------------------------------------

struct FabricCase {
  core::Scenario scenario;
  bool sharded = false;
  std::string label;
};

core::JobSpec job(std::string label, std::vector<int> nodes, core::TrafficPattern pattern,
                  int iterations) {
  core::JobSpec j;
  j.label = std::move(label);
  j.nodes = std::move(nodes);
  j.pattern = pattern;
  j.iterations = iterations;
  return j;
}

std::vector<int> iota_nodes(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// One round of fabric scenarios with seed-drawn tenant placement.
void fabric_round(Rng& rng, int round, std::vector<FabricCase>& out) {
  using core::TrafficPattern;
  const std::string tag = "r" + std::to_string(round) + ".";
  auto add = [&](std::string label, net::Topology topo, std::vector<core::JobSpec> jobs,
                 bool sharded) {
    FabricCase c;
    c.scenario.topology = std::move(topo);
    c.scenario.jobs = std::move(jobs);
    c.scenario.seed = rng.next();
    c.sharded = sharded;
    c.label = tag + std::move(label);
    out.push_back(std::move(c));
  };

  // Sharded part: 1k-host dragonfly and a 2k-host fat-tree.  Placement is
  // seed-drawn but keeps each tenant's neighbours close (a rotated ring,
  // group-blocked interleaving): a ring through a random permutation
  // couples every global link and costs minutes per point.
  const net::Topology df = net::Topology::dragonfly(16, 8, 8);
  auto rotated = [&rng](int n) {
    std::vector<int> v = iota_nodes(n);
    std::rotate(v.begin(), v.begin() + static_cast<long>(rng.below(static_cast<std::size_t>(n))),
                v.end());
    return v;
  };
  add("df_ring", df, {job("ring", rotated(1024), TrafficPattern::kRing, 1)}, true);

  std::vector<int> a, b;
  for (int h : rotated(1024)) ((h / 4) % 2 == 0 ? a : b).push_back(h);
  add("df_interleaved", df,
      {job("even", a, TrafficPattern::kRing, 1), job("odd", b, TrafficPattern::kRing, 1)},
      true);

  // Hot spot: the 64 hosts of the next group each receive one stream from
  // a host of group g, next to a background ring on the two groups after.
  const int g = static_cast<int>(rng.below(16));
  std::vector<int> hot;
  for (int i = 0; i < 64; ++i) hot.insert(hot.end(), {g * 64 + i, ((g + 1) % 16) * 64 + i});
  std::vector<int> bg;
  for (int i = 0; i < 128; ++i) bg.push_back(((g + 2 + i / 64) % 16) * 64 + i % 64);
  add("df_hotspot", df,
      {job("hot", hot, TrafficPattern::kPairs, 2), job("bg", bg, TrafficPattern::kRing, 1)},
      true);

  add("ft2k_ring", net::Topology::fat_tree(64),
      {job("ring", rotated(2048), TrafficPattern::kRing, 1)}, true);

  // Serial part: 2:1 oversubscribed fat-trees, both routings.  A ring on
  // every other host next to pairs that each cross to the far half of the
  // tree, rotated by a seed-drawn number of leaves.
  for (int k : {16, 24, 32}) {
    const int hosts = k * k / 2;
    std::vector<int> order = iota_nodes(hosts);
    std::rotate(order.begin(),
                order.begin() + static_cast<long>(k / 2 * rng.below(static_cast<std::size_t>(k))),
                order.end());
    std::vector<int> ring, pairs;
    for (int i = 0; i < hosts; i += 2) ring.push_back(order[static_cast<std::size_t>(i)]);
    for (int i = 1; i < hosts / 2; i += 2)
      pairs.insert(pairs.end(), {order[static_cast<std::size_t>(i)],
                                 order[static_cast<std::size_t>(i + hosts / 2)]});
    for (net::RoutingPolicy pol : {net::RoutingPolicy::kMinimal, net::RoutingPolicy::kAdaptive}) {
      net::Topology ft = net::Topology::fat_tree(k, 0.5);
      ft.routing(pol);
      add("ft" + std::to_string(k) + "_" + net::to_string(pol), ft,
          {job("ring", ring, TrafficPattern::kRing, 4),
           job("pairs", pairs, TrafficPattern::kPairs, 4)},
          false);
    }
  }
}

int hosts_of(const core::Scenario& s) {
  int n = 2;
  for (const core::JobSpec& j : s.jobs)
    for (int node : j.nodes) n = std::max(n, node + 1);
  return n;
}

std::unique_ptr<Workload> fabric_scale(std::uint64_t seed, bool traced) {
  auto w = std::make_unique<Workload>();
  w->jobs = 1;
  w->shards = kFabricShards;

  Rng rng(seed);
  auto cases = std::make_shared<std::vector<FabricCase>>();
  for (int r = 0; r < kFabricRounds; ++r) fabric_round(rng, r, *cases);
  std::vector<std::size_t> ids(cases->size());
  std::iota(ids.begin(), ids.end(), 0);

  core::SweepSpec spec{core::Scenario{}};
  spec.seed_policy(core::SeedPolicy::kFixed)
      .axis<std::size_t>(
          "case", ids,
          [cases](core::Scenario& s, const std::size_t& i) { s = (*cases)[i].scenario; },
          [cases](const std::size_t& i) { return (*cases)[i].label; });
  w->campaign = std::make_unique<core::Campaign>("perfbench_fabric_scale", std::move(spec));
  add_columns(*w->campaign, {"elapsed_s", "bytes", "agg_Bps", "routes", "reroutes"});

  const int shards = w->shards;
  w->body = [cases, shards](const SweepPoint& p, PointRecord& rec) {
    const long idx = static_cast<long>(p.index);
    core::FabricLab lab(p.scenario);
    core::FabricReport r;
    if ((*cases)[p.index].sharded) {
      Scoped s("fabric.run_sharded", idx);
      r = lab.run_sharded(shards);
    } else {
      Scoped s("fabric.run", idx);
      r = lab.run();
    }
    rec.counts = {{"fabric.windows", static_cast<double>(r.windows)},
                  {"fabric.exchanges", static_cast<double>(r.exchanges)},
                  {"fabric.boundary_links", static_cast<double>(r.boundary_links)},
                  {"fabric.routes", static_cast<double>(r.routes)},
                  {"fabric.reroutes", static_cast<double>(r.reroutes)}};
    std::vector<double> v = {r.elapsed, r.total_bytes, r.aggregate_bw,
                             static_cast<double>(r.routes), static_cast<double>(r.reroutes)};
    double mean_sum = 0.0, peak = 0.0;
    for (const core::LinkReport& l : r.links) {
      mean_sum += l.mean;
      peak = std::max(peak, l.peak);
    }
    v.insert(v.end(), {static_cast<double>(r.links.size()), mean_sum, peak,
                       static_cast<double>(hosts_of(p.scenario)) * p.scenario.network.wire_bw});
    for (const core::TenantReport& t : r.tenants) {
      v.insert(v.end(), {t.bytes, t.finish, t.achieved_bw});
      push_stats(v, t.delivery_latency);
    }
    return v;
  };
  w->valid = [](const std::vector<double>& v) {
    if (v.size() < 9 || (v.size() - 9) % 7 != 0 || !finite(v)) return false;
    const double elapsed = v[0];
    if (elapsed <= 0.0 || v[1] <= 0.0 || v[2] <= 0.0 || v[2] > v[8] || v[4] > v[3] ||
        v[7] < 0.0)
      return false;
    for (std::size_t at = 9; at < v.size(); at += 7)
      if (v[at] <= 0.0 || v[at + 1] <= 0.0 || v[at + 1] > elapsed || v[at + 2] <= 0.0 ||
          v[at + 4] < 0.0 || !ordered_stats(v, at + 3))
        return false;
    return true;
  };
  install_evaluator(*w, "perfbench.fabric.v1");

  if (traced) {
    w->probes = [cases, shards](std::vector<std::pair<std::string, double>>& out) {
      // net::Cluster construction per distinct topology of round 0.
      std::vector<double> build_ms;
      std::vector<std::string> seen;
      double serial = 0.0, sharded = 0.0;
      for (const FabricCase& c : *cases) {
        if (c.label.rfind("r0.", 0) != 0) continue;
        std::ostringstream os;
        c.scenario.topology.serialize(os);
        const std::string shape = os.str();
        if (std::find(seen.begin(), seen.end(), shape) == seen.end()) {
          seen.push_back(shape);
          Scoped s("net.cluster_build");
          const double t0 = now_s();
          net::Cluster cluster(net::ClusterSpec{c.scenario.machine, c.scenario.network,
                                                c.scenario.topology, hosts_of(c.scenario),
                                                c.scenario.seed});
          build_ms.push_back((now_s() - t0) * 1e3);
        }
        if (!c.sharded) continue;
        // Same scenario on one shard and on `shards`, fresh lab each time.
        for (int s : {1, shards}) {
          core::FabricLab lab(c.scenario);
          Scoped span(s == 1 ? "fabric.speedup_shards1" : "fabric.speedup_shardsS");
          const double t0 = now_s();
          (void)lab.run_sharded(s);
          (s == 1 ? serial : sharded) += now_s() - t0;
        }
      }
      std::sort(build_ms.begin(), build_ms.end());
      out.emplace_back("net.cluster_build_ms", build_ms[build_ms.size() / 2]);
      out.emplace_back("fabric.shard_speedup", serial / sharded);
    };
  }
  return w;
}

// ---- task_graph --------------------------------------------------------------

struct TaskCase {
  enum Kind { kCg, kGemm, kPingPong } kind = kCg;
  int ranks = 2;
  int workers = -1;
  int size = 0;  ///< CG unknowns / GEMM matrix dimension / ping-pong bytes
  int backoff = 32;
  bool paused = false;
  std::string label;
};

std::vector<TaskCase> task_cases(Rng& rng) {
  std::vector<TaskCase> out;
  // Problem sizes are drawn from the seed within one tile / block step, so
  // the simulated times change with the seed while the task graphs (and
  // the host work) keep their shape.
  for (TaskCase::Kind kind : {TaskCase::kCg, TaskCase::kGemm})
    for (int r : {2, 4, 8, 16})
      for (int wk : {6, 20, 34}) {  // 34 = the full henri machine
        TaskCase c;
        c.kind = kind;
        c.ranks = r;
        c.workers = wk;
        c.size = kind == TaskCase::kCg ? 32768 + 64 * static_cast<int>(rng.below(16))
                                       : 8192 + 8 * static_cast<int>(rng.below(32));
        c.label = std::string(kind == TaskCase::kCg ? "cg" : "gemm") + " r" +
                  std::to_string(r) + " w" + std::to_string(wk) + " n" + std::to_string(c.size);
        out.push_back(c);
      }
  for (int bytes : {4, 1024, 16384, 262144})
    for (int cfg = 0; cfg < 4; ++cfg) {
      TaskCase c;
      c.kind = TaskCase::kPingPong;
      c.size = bytes;
      c.backoff = cfg == 0 ? 2 : cfg == 1 ? 32 : 10000;
      c.paused = cfg == 3;
      c.label = "pingpong b" + std::to_string(bytes) +
                (c.paused ? std::string(" paused") : " backoff" + std::to_string(c.backoff));
      out.push_back(c);
    }
  return out;
}

std::unique_ptr<Workload> task_graph(std::uint64_t seed, int nproc) {
  auto w = std::make_unique<Workload>();
  w->jobs = std::clamp(nproc - 1, 1, 3);

  Rng rng(seed);
  auto cases = std::make_shared<const std::vector<TaskCase>>(task_cases(rng));
  std::vector<std::size_t> ids(cases->size());
  std::iota(ids.begin(), ids.end(), 0);
  core::SweepSpec spec{core::Scenario{}};
  spec.seed_policy(core::SeedPolicy::kFixed)
      .axis<std::size_t>(
          "case", ids, [](core::Scenario&, const std::size_t&) {},
          [cases](const std::size_t& i) { return (*cases)[i].label; });
  w->campaign = std::make_unique<core::Campaign>("perfbench_task_graph", std::move(spec));
  add_columns(*w->campaign, {"a", "b", "c", "d"});

  w->body = [cases](const SweepPoint& p, PointRecord&) {
    const long idx = static_cast<long>(p.index);
    const TaskCase& c = (*cases)[p.index];
    const hw::MachineConfig machine = hw::MachineConfig::henri();
    const net::NetworkParams np = net::NetworkParams::ib_edr();
    rt::RuntimeConfig cfg = rt::RuntimeConfig::for_machine("henri");
    if (c.kind == TaskCase::kPingPong) {
      cfg.backoff_max_nops = c.backoff;
      cfg.workers_paused = c.paused;
      Scoped s("runtime.pingpong", idx);
      net::Cluster cluster(machine, np);
      cci::mpi::World world(cluster, {{0, -1}, {1, -1}});
      rt::Runtime rt0(world, 0, cfg);
      rt::Runtime rt1(world, 1, cfg);
      rt0.start_workers_idle();
      rt1.start_workers_idle();
      rt::RtPingPongOptions opt;
      opt.bytes = static_cast<std::size_t>(c.size);
      opt.iterations = 100;
      rt::RtPingPong pp(rt0, rt1, opt);
      pp.start();
      cluster.engine().run(10.0);  // idle workers poll forever: bounded horizon
      rt0.shutdown();
      rt1.shutdown();
      std::vector<double> v;
      push_stats(v, cci::trace::Stats::of(pp.latencies()));
      v.push_back(static_cast<double>(pp.latencies().size()));
      return v;
    }
    rt::AppResult r;
    {
      Scoped s("runtime.app", idx);
      if (c.kind == TaskCase::kCg) {
        rt::CgAppOptions o;
        o.ranks = c.ranks;
        o.workers = c.workers;
        o.n = static_cast<std::size_t>(c.size);
        o.iterations = 4;
        o.chunks_per_rank = 64;
        r = rt::run_cg_app(machine, np, cfg, o);
      } else {
        rt::GemmAppOptions o;
        o.ranks = c.ranks;
        o.workers = c.workers;
        o.m = static_cast<std::size_t>(c.size);
        o.tile = 256;
        r = rt::run_gemm_app(machine, np, cfg, o);
      }
    }
    return std::vector<double>{r.makespan, r.sending_bw, r.stall_fraction,
                               static_cast<double>(r.tasks)};
  };
  w->valid = [](const std::vector<double>& v) {
    if (!finite(v)) return false;
    if (v.size() == 5)  // ping-pong: latency stats + sample count
      return v[1] > 0.0 && ordered_stats(v, 0) && v[4] > 0.0;
    return v.size() == 4 && v[0] > 0.0 && v[1] > 0.0 && v[2] >= 0.0 && v[2] <= 1.0 &&
           v[3] > 0.0;
  };
  install_evaluator(*w, "perfbench.runtime.v1");
  return w;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kEntry).count();
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next++;
  return id;
}

int SpanLog::open(const char* name, int parent, long point) {
  const double t0 = now_s();
  const int thread = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  if (!on_) return -1;
  spans_.push_back(Span{name, t0, t0, parent, thread, point, rep_});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const double t1 = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t1;
}

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

int& current_span() {
  thread_local int id = -1;
  return id;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_sweep", "fabric_scale", "task_graph"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, int nproc,
                                        bool traced) {
  std::unique_ptr<Workload> w;
  if (name == "paper_sweep") w = paper_sweep(seed, nproc, traced);
  if (name == "fabric_scale") w = fabric_scale(seed, traced);
  if (name == "task_graph") w = task_graph(seed, nproc);
  if (w) w->traced = traced;
  return w;
}

}  // namespace pb
