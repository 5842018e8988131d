// FlowModel: fluid progress, sharing dynamics, capacity changes, stalls.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/flow_model.hpp"

namespace cci::sim {
namespace {

ActivitySpec flow_through(Resource* r, double work, double demand = 1.0) {
  ActivitySpec spec;
  spec.work = work;
  spec.demands = {{r, demand}};
  return spec;
}

TEST(FlowModel, SingleActivityFinishesAtWorkOverCapacity) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto act = model.start(flow_through(pipe, 50.0));
  engine.run();
  EXPECT_TRUE(act->finished());
  EXPECT_DOUBLE_EQ(act->finished_at(), 5.0);
}

TEST(FlowModel, TwoActivitiesHalveEachOthersRate) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto a = model.start(flow_through(pipe, 50.0));
  auto b = model.start(flow_through(pipe, 50.0));
  engine.run();
  // Both share 10 -> each at 5 -> both finish at t=10.
  EXPECT_DOUBLE_EQ(a->finished_at(), 10.0);
  EXPECT_DOUBLE_EQ(b->finished_at(), 10.0);
}

TEST(FlowModel, LateArrivalSlowsFirstFlow) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto a = model.start(flow_through(pipe, 100.0));
  ActivityPtr b;
  engine.call_at(5.0, [&] { b = model.start(flow_through(pipe, 25.0)); });
  engine.run();
  // a: 5s at rate 10 (50 done), then shares at 5 until b (25 work) finishes
  // at t=10; a has 75 done, finishes remaining 25 at rate 10 by t=12.5.
  EXPECT_NEAR(b->finished_at(), 10.0, 1e-9);
  EXPECT_NEAR(a->finished_at(), 12.5, 1e-9);
}

TEST(FlowModel, CompletionReleasesBandwidthToSurvivors) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 8.0);
  auto small = model.start(flow_through(pipe, 8.0));
  auto large = model.start(flow_through(pipe, 40.0));
  engine.run();
  EXPECT_NEAR(small->finished_at(), 2.0, 1e-9);   // 8 work at rate 4
  EXPECT_NEAR(large->finished_at(), 6.0, 1e-9);   // 8 done by t=2, 32 left at 8
}

TEST(FlowModel, CapacityDropStretchesCompletion) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto act = model.start(flow_through(pipe, 100.0));
  engine.call_at(4.0, [&] { pipe->set_capacity(2.0); });
  engine.run();
  // 40 done at t=4; remaining 60 at rate 2 -> t = 4 + 30 = 34.
  EXPECT_NEAR(act->finished_at(), 34.0, 1e-9);
}

TEST(FlowModel, ZeroCapacityStallsUntilRestored) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto act = model.start(flow_through(pipe, 100.0));
  engine.call_at(2.0, [&] { pipe->set_capacity(0.0); });
  engine.call_at(7.0, [&] { pipe->set_capacity(10.0); });
  engine.run();
  // 20 done by t=2, stalled 5s, 80 left at 10 -> t = 7 + 8 = 15.
  EXPECT_NEAR(act->finished_at(), 15.0, 1e-9);
}

TEST(FlowModel, RateCapLimitsUncontendedFlow) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 100.0);
  ActivitySpec spec = flow_through(pipe, 30.0);
  spec.rate_cap = 3.0;
  auto act = model.start(spec);
  engine.run();
  EXPECT_NEAR(act->finished_at(), 10.0, 1e-9);
  EXPECT_NEAR(act->rate(), 0.0, 1e-12);  // cleared after completion
}

TEST(FlowModel, ZeroWorkActivityCompletesImmediately) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 1.0);
  auto act = model.start(flow_through(pipe, 0.0));
  EXPECT_TRUE(act->finished());
  EXPECT_DOUBLE_EQ(act->finished_at(), 0.0);
}

TEST(FlowModel, CancelRemovesActivityWithoutCompletion) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  auto doomed = model.start(flow_through(pipe, 1000.0));
  auto other = model.start(flow_through(pipe, 50.0));
  engine.call_at(1.0, [&] { model.cancel(doomed); });
  engine.run();
  EXPECT_FALSE(doomed->finished());
  // other: 5 done at t=1 (shared), then full rate: (50-5)/10 -> t=5.5.
  EXPECT_NEAR(other->finished_at(), 5.5, 1e-9);
}

TEST(FlowModel, RooflineCoupledActivityTakesTheBindingResource) {
  // A compute chunk demanding both core flops and memory bytes advances at
  // min(core share / flops-per-unit, memory share / bytes-per-unit).
  Engine engine;
  FlowModel model(engine);
  Resource* core = model.add_resource("core", 10e9);  // 10 Gflop/s
  Resource* mem = model.add_resource("mem", 20e9);    // 20 GB/s

  // High arithmetic intensity: 10 flop per byte -> core-bound.
  ActivitySpec cpu_bound;
  cpu_bound.work = 1e9;  // units
  cpu_bound.demands = {{core, 10.0}, {mem, 1.0}};
  auto a = model.start(cpu_bound);
  engine.run();
  EXPECT_NEAR(a->duration(), 1.0, 1e-9);  // 1e9 units * 10 flop / 10e9

  // Low arithmetic intensity: 0.1 flop per byte -> memory-bound.
  ActivitySpec mem_bound;
  mem_bound.work = 1e9;
  mem_bound.demands = {{core, 0.1}, {mem, 1.0}};
  auto b = model.start(mem_bound);
  engine.run();
  EXPECT_NEAR(b->duration(), 1e9 / 20e9, 1e-12);
}

TEST(FlowModel, UtilizationTracksAllocatedLoad) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 10.0);
  ActivitySpec spec = flow_through(pipe, 1000.0);
  spec.rate_cap = 4.0;
  model.start(spec);
  engine.run(0.1);
  EXPECT_NEAR(pipe->load(), 4.0, 1e-9);
  EXPECT_NEAR(pipe->utilization(), 0.4, 1e-9);
}

Coro await_activity(Engine& engine, FlowModel& model, Resource* pipe, Time& done_at) {
  ActivitySpec spec;
  spec.work = 20.0;
  spec.demands = {{pipe, 1.0}};
  auto act = model.start(spec);
  co_await *act;
  done_at = engine.now();
}

TEST(FlowModel, ProcessCanAwaitActivityCompletion) {
  Engine engine;
  FlowModel model(engine);
  Resource* pipe = model.add_resource("pipe", 4.0);
  Time done_at = -1.0;
  engine.spawn(await_activity(engine, model, pipe, done_at));
  engine.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
}

// ---- malformed inputs raise typed errors (Release has no asserts) ----------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Runs `fn`, expecting std::invalid_argument whose message names `who`.
template <typename Fn>
void expect_rejected(Fn fn, const std::string& who) {
  try {
    fn();
    ADD_FAILURE() << "no exception; expected one naming '" << who << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + who + "'"), std::string::npos) << e.what();
  }
}

TEST(FlowInputValidation, AddResourceRejectsNaNCapacity) {
  Engine engine;
  FlowModel model(engine);
  expect_rejected([&] { model.add_resource("membus", kNaN); }, "membus");
}

TEST(FlowInputValidation, AddResourceRejectsNegativeCapacity) {
  Engine engine;
  FlowModel model(engine);
  expect_rejected([&] { model.add_resource("membus", -1.0); }, "membus");
  // Zero and infinite capacities stay legal.
  EXPECT_NE(model.add_resource("off", 0.0), nullptr);
  EXPECT_NE(model.add_resource("unbounded", kInf), nullptr);
}

TEST(FlowInputValidation, SetCapacityRejectsNaNAndNegative) {
  Engine engine;
  FlowModel model(engine);
  Resource* r = model.add_resource("link3", 10.0);
  auto act = model.start(flow_through(r, 50.0));
  expect_rejected([&] { r->set_capacity(kNaN); }, "link3");
  expect_rejected([&] { r->set_capacity(-0.5); }, "link3");
  EXPECT_EQ(r->capacity(), 10.0);  // rejected changes leave the resource as it was
  engine.run();
  EXPECT_DOUBLE_EQ(act->finished_at(), 5.0);
}

/// A well-formed spec on `r` labelled `label`, mutated by the caller.
ActivitySpec labelled(Engine& engine, Resource* r, const char* label) {
  ActivitySpec spec = flow_through(r, 10.0);
  spec.label = engine.intern(label);
  return spec;
}

TEST(FlowInputValidation, StartRejectsNaNOrNegativeWork) {
  Engine engine;
  FlowModel model(engine);
  Resource* r = model.add_resource("pipe", 10.0);
  ActivitySpec spec = labelled(engine, r, "copy-a");
  spec.work = kNaN;
  expect_rejected([&] { model.start(spec); }, "copy-a");
  spec.work = -1.0;
  expect_rejected([&] { model.start(spec); }, "copy-a");
  EXPECT_EQ(model.running_count(), 0u);
}

TEST(FlowInputValidation, StartRejectsNonPositiveOrNonFiniteWeight) {
  Engine engine;
  FlowModel model(engine);
  Resource* r = model.add_resource("pipe", 10.0);
  ActivitySpec spec = labelled(engine, r, "dma-b");
  for (double w : {0.0, -2.0, kNaN, kInf}) {
    spec.weight = w;
    expect_rejected([&] { model.start(spec); }, "dma-b");
  }
  EXPECT_EQ(model.running_count(), 0u);
}

TEST(FlowInputValidation, StartRejectsNullDemandResource) {
  Engine engine;
  FlowModel model(engine);
  Resource* r = model.add_resource("pipe", 10.0);
  ActivitySpec spec = labelled(engine, r, "kernel-c");
  spec.demands.push_back({nullptr, 1.0});
  expect_rejected([&] { model.start(spec); }, "kernel-c");
  EXPECT_EQ(model.running_count(), 0u);
}

TEST(FlowInputValidation, StartRejectsNaNOrNegativeDemand) {
  Engine engine;
  FlowModel model(engine);
  Resource* r = model.add_resource("pipe", 10.0);
  ActivitySpec spec = labelled(engine, r, "stream-d");
  spec.demands = {{r, kNaN}};
  expect_rejected([&] { model.start(spec); }, "stream-d");
  spec.demands = {{r, -3.0}};
  expect_rejected([&] { model.start(spec); }, "stream-d");
  EXPECT_EQ(model.running_count(), 0u);
}

TEST(FlowInputValidation, StartRejectsNaNRateCap) {
  Engine engine;
  FlowModel model(engine);
  Resource* r = model.add_resource("pipe", 10.0);
  ActivitySpec spec = labelled(engine, r, "poll-e");
  spec.rate_cap = kNaN;
  expect_rejected([&] { model.start(spec); }, "poll-e");
  EXPECT_EQ(model.running_count(), 0u);
  // A non-positive cap still means "no cap", and an unlabelled activity is
  // named as such.
  spec.rate_cap = -1.0;
  auto act = model.start(spec);
  ActivitySpec bad = flow_through(r, kNaN);
  expect_rejected([&] { model.start(bad); }, "<unlabelled>");
  engine.run();
  EXPECT_DOUBLE_EQ(act->finished_at(), 1.0);
}

}  // namespace
}  // namespace cci::sim
