// Fig. 5 — impact of communication-thread placement and data locality on
// henri (the remaining placement combinations; Fig. 4 covered
// data-near/thread-far).  Six panels: latency and bandwidth for each combo.
#include "bench/registry.hpp"
#include "kernels/stream.hpp"

namespace cci::bench {
namespace {

void run_panel(FigureContext& ctx, const char* campaign_name, const char* name,
               core::Placement data, core::Placement thread, std::size_t bytes) {
  using core::SweepPoint;
  using core::SideBySideResult;
  ctx.out() << "--- " << name << " (data " << to_string(data) << " NIC, comm thread "
            << to_string(thread) << " NIC, "
            << trace::format_bytes(static_cast<double>(bytes)) << ") ---\n";

  core::Scenario base;
  base.kernel = kernels::triad_traits();
  base.data = data;
  base.comm_thread = thread;
  base.message_bytes = bytes;
  base.compute_repetitions = 5;
  base.target_pass_seconds = 0.02;
  if (bytes > 4096) {
    base.pingpong_iterations = 4;
    base.pingpong_warmup = 1;
  } else {
    base.pingpong_iterations = 30;
  }

  const bool latency_panel = bytes <= 4096;
  core::Campaign c(campaign_name, core::SweepSpec(base)
                                      .seed_policy(core::SeedPolicy::kFixed)
                                      .cores("cores", core::paper_core_counts(35)));
  c.column("alone",
           [latency_panel](const SweepPoint&, const SideBySideResult& r) {
             return latency_panel ? sim::to_usec(r.comm_alone.latency.median)
                                  : r.comm_alone.bandwidth.median / 1e9;
           })
      .column("together",
              [latency_panel](const SweepPoint&, const SideBySideResult& r) {
                return latency_panel ? sim::to_usec(r.comm_together.latency.median)
                                     : r.comm_together.bandwidth.median / 1e9;
              })
      .column("stream_alone_GBps",
              [](const SweepPoint&, const SideBySideResult& r) {
                return r.compute_alone.per_core_bandwidth.median / 1e9;
              })
      .column("stream_together_GBps", core::Campaign::stream_per_core_gbps());
  core::CampaignRun run = ctx.run(c);
  ctx.print(c, run);
  ctx.out() << '\n';
}

int run(FigureContext& ctx) {
  using core::Placement;
  ctx.out() << "(latency panels in us, bandwidth panels in GB/s)\n\n";

  run_panel(ctx, "fig05a", "Fig. 5a: latency", Placement::kNearNic, Placement::kNearNic, 4);
  run_panel(ctx, "fig05b", "Fig. 5b: latency", Placement::kFarFromNic, Placement::kNearNic, 4);
  run_panel(ctx, "fig05c", "Fig. 5c: latency", Placement::kFarFromNic, Placement::kFarFromNic,
            4);
  run_panel(ctx, "fig05d", "Fig. 5d: bandwidth", Placement::kNearNic, Placement::kNearNic,
            64 << 20);
  run_panel(ctx, "fig05e", "Fig. 5e: bandwidth", Placement::kFarFromNic, Placement::kNearNic,
            64 << 20);
  run_panel(ctx, "fig05f", "Fig. 5f: bandwidth", Placement::kFarFromNic,
            Placement::kFarFromNic, 64 << 20);

  ctx.out() << "Paper: thread near -> latency rises slightly from ~6 cores, plateaus ~2 us;\n"
               "thread far -> latency doubles from ~25 cores.  Data near -> bandwidth\n"
               "decreases steadily; data far -> bandwidth drops abruptly.\n";
  return 0;
}

const FigureRegistrar reg("fig05", "Fig. 5",
                          "placement grid: data x comm-thread near/far from the NIC", run);

}  // namespace
}  // namespace cci::bench
