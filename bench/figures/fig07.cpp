// Fig. 7 — impact of memory pressure (tunable arithmetic intensity) on
// network performance: the cursor-modified TRIAD swept from memory-bound
// to CPU-bound, with 35 computing cores on henri.
#include "bench/registry.hpp"
#include "kernels/tunable_triad.hpp"

namespace cci::bench {
namespace {

void run_panel(FigureContext& ctx, const char* campaign_name, const char* name,
               std::size_t bytes) {
  using core::SweepPoint;
  using core::SideBySideResult;
  ctx.out() << "--- " << name << " ---\n";
  const bool latency_panel = bytes <= 4096;

  core::Scenario base;
  base.comm_thread = core::Placement::kFarFromNic;
  base.data = core::Placement::kNearNic;
  base.computing_cores = 35;
  base.message_bytes = bytes;
  // Long enough that many ping-pong iterations overlap the computation
  // even in the CPU-bound regime (the 64 MB transfers take ~40 ms under
  // full contention).
  base.compute_repetitions = latency_panel ? 4 : 8;
  base.target_pass_seconds = latency_panel ? 0.02 : 0.08;
  base.pingpong_iterations = latency_panel ? 20 : 4;
  base.pingpong_warmup = latency_panel ? 3 : 1;

  core::Campaign c(
      campaign_name,
      core::SweepSpec(base)
          .seed_policy(core::SeedPolicy::kFixed)
          .values("ai_flop_per_B",
                  {0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0, 20.0, 40.0, 70.0, 100.0},
                  [](core::Scenario& s, double ai) {
                    s.kernel =
                        kernels::TunableTriad(
                            16, kernels::TunableTriad::cursor_for_intensity(ai))
                            .traits();
                  }));
  c.column("cursor",
           [](const SweepPoint& p, const SideBySideResult&) {
             return static_cast<double>(
                 kernels::TunableTriad::cursor_for_intensity(p.numeric[0]));
           })
      .column(latency_panel ? "lat_alone_us" : "bw_alone_GBps",
              [latency_panel](const SweepPoint&, const SideBySideResult& r) {
                return latency_panel ? sim::to_usec(r.comm_alone.latency.median)
                                     : r.comm_alone.bandwidth.median / 1e9;
              })
      .column(latency_panel ? "lat_together_us" : "bw_together_GBps",
              [latency_panel](const SweepPoint&, const SideBySideResult& r) {
                return latency_panel ? sim::to_usec(r.comm_together.latency.median)
                                     : r.comm_together.bandwidth.median / 1e9;
              })
      .column("compute_alone_ms",
              [](const SweepPoint&, const SideBySideResult& r) {
                return sim::to_msec(r.compute_alone.pass_duration.median);
              })
      .column("compute_together_ms",
              [](const SweepPoint&, const SideBySideResult& r) {
                return sim::to_msec(r.compute_together.pass_duration.median);
              });
  core::CampaignRun run = ctx.run(c);
  ctx.print(c, run);
  ctx.out() << '\n';
}

int run(FigureContext& ctx) {
  run_panel(ctx, "fig07a", "Fig. 7a: latency (4 B messages)", 4);
  run_panel(ctx, "fig07b", "Fig. 7b: bandwidth (64 MB messages)", 64 << 20);
  ctx.out() << "Paper (henri): below ~6 flop/B the program is memory-bound — latency\n"
               "doubles, bandwidth drops ~60%, computation slowed ~10% by the 64 MB\n"
               "transfers; above 6 flop/B communication returns to nominal.\n";
  return 0;
}

const FigureRegistrar reg(
    "fig07", "Fig. 7", "memory pressure vs network performance (tunable-AI TRIAD, 35 cores)",
    run);

}  // namespace
}  // namespace cci::bench
