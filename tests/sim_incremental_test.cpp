// Incremental max-min engine: the partial re-solve path must be
// indistinguishable from a from-scratch solve.
//
//  * Solver level: after any randomized sequence of add/remove/capacity
//    mutations, the persistent solver's rates and loads must match a fresh
//    solve_max_min over the surviving problem (within 1e-9).
//  * Model level: a whole randomized simulation (starts, cancels, capacity
//    changes, several disjoint resource clusters) must produce bitwise
//    identical completion times with partial re-solves on and off.
//  * Inert capacity changes: a set_capacity() on a resource no live flow
//    lists dirties nothing, yet later flows see the stored capacity.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hw/frequency_governor.hpp"
#include "hw/machine.hpp"
#include "sim/flow_model.hpp"
#include "sim/maxmin.hpp"
#include "sim/rng.hpp"

namespace cci::sim {
namespace {

double tol(double x) { return 1e-9 * std::max(1.0, std::fabs(x)); }

// ---- solver-level equivalence ----------------------------------------------

struct LiveFlow {
  MaxMinSolver::FlowId id;
  MaxMinFlow flow;
};

/// Rebuild the current problem from scratch and compare against the
/// incrementally maintained state.
void expect_matches_reference(MaxMinSolver& solver, const std::vector<LiveFlow>& live,
                              const std::vector<double>& caps) {
  MaxMinProblem p;
  p.capacity = caps;
  for (const auto& lf : live) p.flows.push_back(lf.flow);
  MaxMinSolution ref = solve_max_min(p);
  for (std::size_t i = 0; i < live.size(); ++i) {
    double got = solver.rate(live[i].id);
    if (std::isinf(ref.rate[i])) {
      EXPECT_TRUE(std::isinf(got)) << "flow " << i;
    } else {
      EXPECT_NEAR(got, ref.rate[i], tol(ref.rate[i])) << "flow " << i;
    }
  }
  for (std::size_t r = 0; r < caps.size(); ++r)
    EXPECT_NEAR(solver.load(r), ref.load[r], tol(ref.load[r])) << "resource " << r;
}

class IncrementalSolverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalSolverProperty, MutationSequencesMatchFromScratch) {
  Rng rng(GetParam());
  MaxMinSolver solver;

  // Component-structured resources: a few disjoint clusters, flows confined
  // to one cluster each (plus the occasional cluster-spanning flow, which
  // must merge components).
  const std::size_t n_clusters = 2 + rng.below(4);
  const std::size_t res_per_cluster = 1 + rng.below(4);
  std::vector<double> caps;
  for (std::size_t r = 0; r < n_clusters * res_per_cluster; ++r) {
    caps.push_back(rng.uniform(0.5, 100.0));
    solver.add_resource(caps.back());
  }

  std::vector<LiveFlow> live;
  auto add_random_flow = [&] {
    MaxMinFlow flow;
    flow.weight = rng.uniform(0.1, 4.0);
    flow.rate_cap = rng.uniform() < 0.3 ? rng.uniform(0.1, 50.0) : 0.0;
    if (rng.uniform() < 0.95) {
      // Confined to one cluster.
      std::size_t c = rng.below(n_clusters);
      std::size_t hops = 1 + rng.below(res_per_cluster);
      for (std::size_t h = 0; h < hops; ++h)
        flow.entries.push_back(
            {c * res_per_cluster + rng.below(res_per_cluster), rng.uniform(0.1, 3.0)});
    } else if (rng.uniform() < 0.9) {
      // Cluster-spanning flow: forces a component merge.
      for (int h = 0; h < 2; ++h)
        flow.entries.push_back({rng.below(caps.size()), rng.uniform(0.1, 3.0)});
    }  // else: no demands at all (unconstrained)
    MaxMinSolver::FlowId id = solver.add_flow(flow.weight, flow.rate_cap, flow.entries);
    live.push_back({id, std::move(flow)});
  };

  for (int step = 0; step < 120; ++step) {
    double dice = rng.uniform();
    if (live.empty() || dice < 0.45) {
      add_random_flow();
    } else if (dice < 0.8) {
      std::size_t victim = rng.below(live.size());
      solver.remove_flow(live[victim].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      std::size_t r = rng.below(caps.size());
      caps[r] = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.5, 100.0);
      solver.set_capacity(r, caps[r]);
    }
    solver.solve();
    expect_matches_reference(solver, live, caps);
  }
  // The clustered structure must actually have exercised the partial path.
  EXPECT_GT(solver.stats().partial_solves, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSolverProperty,
                         ::testing::Values(1ull, 7ull, 42ull, 1337ull, 0xC0FFEEull));

// ---- model-level A/B determinism -------------------------------------------

struct ScenarioResult {
  std::vector<Time> finished_at;
  std::vector<double> final_loads;
  std::uint64_t partial_solves = 0;
  std::uint64_t flow_visits = 0;
};

/// A randomized multi-cluster workload: staggered starts, cancellations and
/// capacity wobbles across disjoint NUMA-ish resource groups.
ScenarioResult run_scenario(std::uint64_t seed, bool incremental) {
  Rng rng(seed);
  Engine engine;
  FlowModel model(engine);
  model.set_incremental(incremental);

  constexpr std::size_t kClusters = 6;
  constexpr std::size_t kResPerCluster = 3;
  std::vector<Resource*> res;
  for (std::size_t c = 0; c < kClusters; ++c)
    for (std::size_t r = 0; r < kResPerCluster; ++r)
      res.push_back(model.add_resource("r" + std::to_string(c) + "_" + std::to_string(r),
                                       rng.uniform(5.0, 50.0)));

  std::vector<ActivityPtr> acts;
  acts.reserve(160);
  for (int i = 0; i < 160; ++i) {
    ActivitySpec spec;
    spec.work = rng.uniform(1.0, 200.0);
    spec.weight = rng.uniform(0.5, 2.0);
    spec.rate_cap = rng.uniform() < 0.25 ? rng.uniform(1.0, 20.0) : 0.0;
    std::size_t c = rng.below(kClusters);
    std::size_t hops = 1 + rng.below(kResPerCluster);
    for (std::size_t h = 0; h < hops; ++h)
      spec.demands.push_back({res[c * kResPerCluster + rng.below(kResPerCluster)],
                              rng.uniform(0.2, 2.0)});
    Time at = rng.uniform(0.0, 5.0);
    engine.call_at(at, [&model, &acts, spec]() mutable { acts.push_back(model.start(spec)); });
  }
  // Capacity wobbles on random resources.
  for (int i = 0; i < 30; ++i) {
    Resource* r = res[rng.below(res.size())];
    double cap = rng.uniform(5.0, 50.0);
    engine.call_at(rng.uniform(0.5, 6.0), [r, cap] { r->set_capacity(cap); });
  }
  // A few cancellations of whatever happens to be running.
  for (int i = 0; i < 10; ++i) {
    engine.call_at(rng.uniform(1.0, 6.0), [&model, &acts, i] {
      if (acts.size() > static_cast<std::size_t>(i * 3) && !acts[i * 3]->finished())
        model.cancel(acts[i * 3]);
    });
  }
  engine.run();

  ScenarioResult out;
  for (const auto& a : acts) out.finished_at.push_back(a->finished_at());
  for (const Resource* r : res) out.final_loads.push_back(r->load());
  out.partial_solves = model.solver().stats().partial_solves;
  out.flow_visits = model.solver().stats().flow_visits;
  return out;
}

class IncrementalModelAB : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalModelAB, PartialResolvesAreBitwiseIdenticalToFull) {
  ScenarioResult inc = run_scenario(GetParam(), true);
  ScenarioResult full = run_scenario(GetParam(), false);
  ASSERT_EQ(inc.finished_at.size(), full.finished_at.size());
  for (std::size_t i = 0; i < inc.finished_at.size(); ++i)
    EXPECT_EQ(inc.finished_at[i], full.finished_at[i]) << "activity " << i;
  for (std::size_t r = 0; r < inc.final_loads.size(); ++r)
    EXPECT_EQ(inc.final_loads[r], full.final_loads[r]) << "resource " << r;
  // The incremental run must skip clean components and do strictly less
  // solver work than the from-scratch run.
  EXPECT_GT(inc.partial_solves, 0u);
  EXPECT_EQ(full.partial_solves, 0u);
  EXPECT_LT(inc.flow_visits, full.flow_visits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalModelAB,
                         ::testing::Values(3ull, 11ull, 99ull, 0xDEADBEEFull));

// ---- inert capacity changes ---------------------------------------------------

TEST(MaxMinInertCapacity, UnreferencedResourceLeavesComponentsClean) {
  MaxMinSolver solver;
  for (double c : {10.0, 20.0, 30.0}) solver.add_resource(c);
  solver.add_flow(1.0, 0.0, {{0, 1.0}, {1, 1.0}});
  solver.solve();
  const MaxMinSolver::Stats before = solver.stats();

  solver.set_capacity(2, 5.0);  // no flow lists resource 2
  solver.solve();
  const MaxMinSolver::Stats& after = solver.stats();
  EXPECT_EQ(after.components_solved, before.components_solved);
  EXPECT_EQ(after.flow_visits, before.flow_visits);
  // A solve that re-solved nothing is neither full nor partial.
  EXPECT_EQ(after.solves, before.solves + 1);
  EXPECT_EQ(after.full_solves, before.full_solves);
  EXPECT_EQ(after.partial_solves, before.partial_solves);
  EXPECT_TRUE(solver.changed_flows().empty());
  EXPECT_TRUE(solver.touched_resources().empty());
  EXPECT_EQ(solver.capacity(2), 5.0);
  EXPECT_EQ(solver.load(2), 0.0);
  EXPECT_EQ(solver.pressure(2), 0.0);

  // A referenced resource still dirties its component.
  solver.set_capacity(0, 4.0);
  solver.solve();
  EXPECT_EQ(solver.stats().components_solved, before.components_solved + 1);
  EXPECT_EQ(solver.rate(0), 4.0);
}

TEST(MaxMinInertCapacity, LaterFlowReadsTheStoredCapacity) {
  MaxMinSolver solver;
  std::vector<double> caps = {10.0, 20.0, 30.0};
  for (double c : caps) solver.add_resource(c);
  std::vector<LiveFlow> live;
  auto add = [&](MaxMinFlow flow) {
    MaxMinSolver::FlowId id = solver.add_flow(flow.weight, flow.rate_cap, flow.entries);
    live.push_back({id, std::move(flow)});
  };
  add({1.0, 0.0, {{0, 1.0}, {1, 2.0}}});
  solver.solve();

  caps[2] = 7.5;
  solver.set_capacity(2, caps[2]);
  solver.solve();
  add({1.5, 0.0, {{2, 1.5}}});
  add({1.0, 0.0, {{1, 1.0}, {2, 0.5}}});
  solver.solve();
  expect_matches_reference(solver, live, caps);
  EXPECT_GT(solver.load(2), 0.0);
}

TEST(MaxMinInertCapacity, LastFlowLeavesThenCapacityChanges) {
  MaxMinSolver solver;
  solver.add_resource(10.0);
  solver.add_resource(10.0);
  // Merge both resources into one component, then let the flow leave: the
  // partition stays over-merged, and resource 1 is unreferenced.
  MaxMinSolver::FlowId a = solver.add_flow(1.0, 0.0, {{0, 1.0}, {1, 1.0}});
  solver.solve();
  EXPECT_EQ(solver.rate(a), 10.0);
  solver.remove_flow(a);
  solver.solve();
  EXPECT_EQ(solver.load(0), 0.0);
  EXPECT_EQ(solver.load(1), 0.0);

  const std::uint64_t solved = solver.stats().components_solved;
  solver.set_capacity(0, 4.0);
  solver.set_capacity(1, 2.0);
  solver.solve();
  EXPECT_EQ(solver.stats().components_solved, solved);

  MaxMinSolver::FlowId b = solver.add_flow(1.0, 0.0, {{0, 1.0}});
  MaxMinSolver::FlowId c = solver.add_flow(1.0, 0.0, {{1, 1.0}});
  solver.solve();
  EXPECT_EQ(solver.rate(b), 4.0);
  EXPECT_EQ(solver.rate(c), 2.0);
  EXPECT_EQ(solver.load(0), 4.0);
  EXPECT_EQ(solver.load(1), 2.0);
}

TEST(MaxMinInertCapacity, FlowListingAResourceTwiceIsCountedTwice) {
  MaxMinSolver solver;
  solver.add_resource(12.0);
  // One flow, two entries on resource 0: demand 1 + 2 per unit of rate.
  MaxMinSolver::FlowId twice = solver.add_flow(1.0, 0.0, {{0, 1.0}, {0, 2.0}});
  MaxMinSolver::FlowId once = solver.add_flow(1.0, 0.0, {{0, 1.0}});
  solver.solve();
  EXPECT_EQ(solver.rate(twice), 3.0);
  EXPECT_EQ(solver.rate(once), 3.0);

  // Removing the twice-listing flow must leave the resource referenced by
  // the other one: the change is not inert.
  solver.remove_flow(twice);
  solver.solve();
  std::uint64_t solved = solver.stats().components_solved;
  solver.set_capacity(0, 6.0);
  solver.solve();
  EXPECT_EQ(solver.stats().components_solved, solved + 1);
  EXPECT_EQ(solver.rate(once), 6.0);

  // With only the twice-listing flow left, removing it brings the count
  // back to exactly zero: the next change is inert.
  solver.remove_flow(once);
  twice = solver.add_flow(1.0, 0.0, {{0, 1.0}, {0, 2.0}});
  solver.solve();
  EXPECT_EQ(solver.rate(twice), 2.0);
  solver.remove_flow(twice);
  solver.solve();
  solved = solver.stats().components_solved;
  solver.set_capacity(0, 9.0);
  solver.solve();
  EXPECT_EQ(solver.stats().components_solved, solved);
  once = solver.add_flow(1.0, 0.0, {{0, 1.0}});
  solver.solve();
  EXPECT_EQ(solver.rate(once), 9.0);
}

struct GovernorScenarioResult {
  std::vector<Time> finished_at;
  MaxMinSolver::Stats stats;
};

/// Memory-bound compute activities on a few henri cores of socket 0 while
/// other cores, with no flow on them, change frequency under the governor.
GovernorScenarioResult run_governor_scenario(bool incremental) {
  Engine engine;
  FlowModel model(engine);
  model.set_incremental(incremental);
  hw::MachineConfig cfg = hw::MachineConfig::henri();
  hw::Machine machine(model, cfg);
  hw::FrequencyGovernor& gov = machine.governor();
  Rng rng(2024);

  std::vector<ActivityPtr> acts;
  for (int i = 0; i < 24; ++i) {
    const int core = static_cast<int>(rng.below(6));  // NUMA 0 of socket 0
    ActivitySpec spec;
    spec.work = rng.uniform(1e6, 4e6);  // iterations
    spec.demands.push_back({machine.core(core), 20.0});  // cycles per iteration
    spec.demands.push_back({machine.mem_ctrl(cfg.numa_of_core(core)), 64.0});  // bytes
    engine.call_at(rng.uniform(0.0, 0.05), [&, spec, core] {
      gov.core_busy(core, hw::VectorClass::kAvx2);
      acts.push_back(model.start(spec));
    });
  }
  // Cores with no flow toggling busy/idle: socket-0 toggles move the turbo
  // step of the compute cores, socket-1 toggles only touch idle resources.
  for (int i = 0; i < 80; ++i) {
    const int core = 9 + static_cast<int>(rng.below(static_cast<std::uint64_t>(
                             cfg.total_cores() - 9)));
    const Time at = rng.uniform(0.0, 0.08);
    const auto vc = rng.uniform() < 0.5 ? hw::VectorClass::kAvx512 : hw::VectorClass::kScalar;
    engine.call_at(at, [&gov, core, vc] { gov.core_busy(core, vc); });
    engine.call_at(at + rng.uniform(1e-4, 1e-2), [&gov, core] { gov.core_idle(core); });
  }
  engine.run();

  GovernorScenarioResult out;
  for (const auto& a : acts) out.finished_at.push_back(a->finished_at());
  out.stats = model.solver().stats();
  return out;
}

TEST(FlowInertCapacity, GovernorChurnOnIdleCoresMatchesFromScratch) {
  GovernorScenarioResult inc = run_governor_scenario(true);
  GovernorScenarioResult full = run_governor_scenario(false);
  ASSERT_EQ(inc.finished_at.size(), 24u);
  ASSERT_EQ(inc.finished_at.size(), full.finished_at.size());
  for (std::size_t i = 0; i < inc.finished_at.size(); ++i) {
    EXPECT_GT(inc.finished_at[i], 0.0) << "activity " << i;
    EXPECT_EQ(inc.finished_at[i], full.finished_at[i]) << "activity " << i;
  }
  // Same number of re-solves (reallocate() runs at every change), but the
  // incremental run solves strictly fewer components, and some of its
  // solves found nothing dirty at all (inert frequency changes).
  EXPECT_EQ(inc.stats.solves, full.stats.solves);
  EXPECT_LT(inc.stats.components_solved, full.stats.components_solved);
  EXPECT_GT(inc.stats.solves, inc.stats.full_solves + inc.stats.partial_solves);
}

}  // namespace
}  // namespace cci::sim
