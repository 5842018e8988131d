// Governor property tests: invariants under random busy/idle sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hw/frequency_governor.hpp"
#include "hw/machine.hpp"
#include "sim/rng.hpp"

namespace cci::hw {
namespace {

class GovernorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GovernorProperty, FrequenciesStayInsideTheEnvelope) {
  sim::Rng rng(GetParam());
  for (const auto& cfg : MachineConfig::all_presets()) {
    sim::Engine engine;
    sim::FlowModel model(engine);
    Machine machine(model, cfg);
    auto& gov = machine.governor();
    const double fmax = cfg.turbo_freq(VectorClass::kScalar, 1);

    std::vector<bool> busy(static_cast<std::size_t>(cfg.total_cores()), false);
    for (int step = 0; step < 300; ++step) {
      int core = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg.total_cores())));
      auto idx = static_cast<std::size_t>(core);
      if (busy[idx]) {
        gov.core_idle(core);
        busy[idx] = false;
      } else {
        VectorClass vc = rng.uniform() < 0.3 ? VectorClass::kAvx512 : VectorClass::kScalar;
        gov.core_busy(core, vc);
        busy[idx] = true;
      }
      for (int c = 0; c < cfg.total_cores(); ++c) {
        double f = gov.core_freq(c);
        EXPECT_GE(f, cfg.core_freq_min_hz) << cfg.name;
        EXPECT_LE(f, fmax) << cfg.name;
        EXPECT_DOUBLE_EQ(machine.core(c)->capacity(), f) << cfg.name;
      }
      for (int s = 0; s < cfg.sockets; ++s) {
        EXPECT_GE(gov.uncore_freq(s), cfg.uncore_freq_min_hz) << cfg.name;
        EXPECT_LE(gov.uncore_freq(s), cfg.uncore_freq_max_hz) << cfg.name;
      }
    }
  }
}

TEST_P(GovernorProperty, MoreActiveCoresNeverRaiseTurbo) {
  // Monotonicity: adding busy cores to a socket can only lower (or keep)
  // the busy cores' frequency.
  sim::Rng rng(GetParam());
  auto cfg = MachineConfig::henri();
  sim::Engine engine;
  sim::FlowModel model(engine);
  Machine machine(model, cfg);
  auto& gov = machine.governor();
  gov.core_busy(0, VectorClass::kAvx512);
  double prev = gov.core_freq(0);
  for (int c = 1; c < 18; ++c) {
    gov.core_busy(c, rng.uniform() < 0.5 ? VectorClass::kAvx512 : VectorClass::kScalar);
    double now = gov.core_freq(0);
    EXPECT_LE(now, prev + 1.0);
    prev = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GovernorProperty, ::testing::Values(5ull, 19ull, 101ull));

TEST(GovernorProperty, ActiveCountMatchesBookkeeping) {
  auto cfg = MachineConfig::henri();
  sim::Engine engine;
  sim::FlowModel model(engine);
  Machine machine(model, cfg);
  auto& gov = machine.governor();
  EXPECT_EQ(gov.active_cores(0), 0);
  gov.core_busy(0, VectorClass::kScalar);
  gov.core_busy(5, VectorClass::kScalar);
  gov.core_comm(17);
  EXPECT_EQ(gov.active_cores(0), 3);
  EXPECT_EQ(gov.active_cores(1), 0);
  gov.core_idle(5);
  EXPECT_EQ(gov.active_cores(0), 2);
}

// Brute-force oracle for the governor's bookkeeping: the test mirrors every
// core's state itself, counts active cores by a direct scan, and recomputes
// each core's frequency from the policy formula and
// MachineConfig::turbo_freq after every transition.
enum class Mirror { kIdle, kBusy, kComm };

double expected_freq(const MachineConfig& cfg, CpuPolicy policy, bool turbo, Mirror state,
                     VectorClass vc, int active) {
  switch (state) {
    case Mirror::kIdle:
      return policy == CpuPolicy::kPerformance ? cfg.core_freq_nominal_hz : cfg.core_freq_min_hz;
    case Mirror::kComm:
      return std::min(cfg.comm_core_freq_hz, turbo ? cfg.turbo_freq(VectorClass::kScalar, active)
                                                   : cfg.core_freq_nominal_hz);
    case Mirror::kBusy:
      return turbo ? cfg.turbo_freq(vc, active)
                   : std::min(cfg.core_freq_nominal_hz, cfg.turbo_freq(vc, active));
  }
  return 0.0;
}

TEST_P(GovernorProperty, BookkeepingMatchesBruteForceOracle) {
  for (MachineConfig cfg : {MachineConfig::henri(), MachineConfig::bora()}) {
    cfg.dvfs_transition_latency = 0.0;  // frequencies land at the decision
    for (CpuPolicy policy : {CpuPolicy::kOndemand, CpuPolicy::kPerformance}) {
      for (bool turbo : {true, false}) {
        sim::Rng rng(GetParam());
        sim::Engine engine;
        sim::FlowModel model(engine);
        Machine machine(model, cfg);
        auto& gov = machine.governor();
        gov.set_policy(policy);
        gov.set_turbo_enabled(turbo);
        const auto n = static_cast<std::size_t>(cfg.total_cores());
        std::vector<Mirror> state(n, Mirror::kIdle);
        std::vector<VectorClass> vclass(n, VectorClass::kScalar);
        const std::string where = cfg.name +
                                  (policy == CpuPolicy::kOndemand ? " ondemand" : " performance") +
                                  (turbo ? " turbo" : " no-turbo");
        for (int step = 0; step < 200; ++step) {
          const int core = static_cast<int>(rng.below(n));
          const auto idx = static_cast<std::size_t>(core);
          const double dice = rng.uniform();
          if (dice < 0.45) {
            const double pick = rng.uniform();
            const VectorClass vc = pick < 0.3   ? VectorClass::kAvx512
                                   : pick < 0.6 ? VectorClass::kAvx2
                                                : VectorClass::kScalar;
            gov.core_busy(core, vc);
            state[idx] = Mirror::kBusy;
            vclass[idx] = vc;
          } else if (dice < 0.85) {
            gov.core_idle(core);
            state[idx] = Mirror::kIdle;
          } else {
            gov.core_comm(core);
            state[idx] = Mirror::kComm;
          }
          std::vector<int> active(static_cast<std::size_t>(cfg.sockets), 0);
          for (int c = 0; c < cfg.total_cores(); ++c)
            if (state[static_cast<std::size_t>(c)] != Mirror::kIdle)
              ++active[static_cast<std::size_t>(cfg.socket_of_core(c))];
          for (int s = 0; s < cfg.sockets; ++s)
            ASSERT_EQ(gov.active_cores(s), active[static_cast<std::size_t>(s)])
                << where << " step " << step << " socket " << s;
          for (int c = 0; c < cfg.total_cores(); ++c) {
            const auto ci = static_cast<std::size_t>(c);
            const double want =
                expected_freq(cfg, policy, turbo, state[ci], vclass[ci],
                              active[static_cast<std::size_t>(cfg.socket_of_core(c))]);
            ASSERT_EQ(gov.core_freq(c), want) << where << " step " << step << " core " << c;
            ASSERT_EQ(machine.core(c)->capacity(), want) << where << " step " << step;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cci::hw
