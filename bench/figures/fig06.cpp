// Fig. 6 — impact of the transmitted message size on memory contention,
// with 5 computing cores (6a) and 35 computing cores (6b) on henri.
#include "bench/registry.hpp"
#include "kernels/stream.hpp"

namespace cci::bench {
namespace {

void run_panel(FigureContext& ctx, int cores) {
  using core::SweepPoint;
  using core::SideBySideResult;
  ctx.out() << "--- Fig. 6" << (cores <= 5 ? 'a' : 'b') << ": " << cores
            << " computing cores ---\n";

  core::Scenario base;
  base.kernel = kernels::triad_traits();
  base.comm_thread = core::Placement::kFarFromNic;
  base.data = core::Placement::kNearNic;
  base.computing_cores = cores;
  base.compute_repetitions = 4;
  base.target_pass_seconds = 0.02;

  // The message-size axis also switches the ping-pong measurement plan:
  // big transfers run fewer, longer iterations.
  core::SweepSpec spec(base);
  spec.seed_policy(core::SeedPolicy::kFixed)
      .axis<std::size_t>(
          "msg_bytes", core::paper_message_sizes(),
          [](core::Scenario& s, const std::size_t& bytes) {
            s.message_bytes = bytes;
            s.pingpong_iterations = bytes >= (1u << 20) ? 4 : 20;
            s.pingpong_warmup = bytes >= (1u << 20) ? 1 : 3;
          },
          [](const std::size_t& bytes) { return std::to_string(bytes); },
          [](const std::size_t& bytes) { return static_cast<double>(bytes); });

  auto small = [](const SweepPoint& p) { return p.scenario.message_bytes < 64 * 1024; };
  core::Campaign c(cores <= 5 ? "fig06a" : "fig06b", std::move(spec));
  c.column("net_alone", 3,
           [small](const SweepPoint& p, const SideBySideResult& r) {
             return small(p) ? sim::to_usec(r.comm_alone.latency.median)
                             : r.comm_alone.bandwidth.median / 1e9;
           })
      .column("net_together", 3,
              [small](const SweepPoint& p, const SideBySideResult& r) {
                return small(p) ? sim::to_usec(r.comm_together.latency.median)
                                : r.comm_together.bandwidth.median / 1e9;
              })
      .column("stream_alone_GBps", 2,
              [](const SweepPoint&, const SideBySideResult& r) {
                return r.compute_alone.per_core_bandwidth.median / 1e9;
              })
      .column("stream_together_GBps", 2,
              [](const SweepPoint&, const SideBySideResult& r) {
                return r.compute_together.per_core_bandwidth.median / 1e9;
              })
      .column("net_unit",
              core::Campaign::Formatter([small](const SweepPoint& p, double) {
                return std::string(small(p) ? "us" : "GB/s");
              }),
              [](const SweepPoint&, const SideBySideResult&) { return 0.0; });
  core::CampaignRun run = ctx.run(c);
  ctx.print(c, run);
  ctx.out() << '\n';
}

int run(FigureContext& ctx) {
  run_panel(ctx, 5);
  run_panel(ctx, 35);
  ctx.out() << "Paper: with 5 cores, communications degrade from 64 KB and STREAM from\n"
               "4 KB messages; with 35 cores communications degrade from ~128 B and\n"
               "STREAM from 4 KB as well.\n";
  return 0;
}

const FigureRegistrar reg("fig06", "Fig. 6",
                          "message-size sweep: who starts hurting whom, and when", run);

}  // namespace
}  // namespace cci::bench
