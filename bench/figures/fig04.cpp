// Fig. 4 — memory-bound computations (STREAM TRIAD) vs network
// performance on henri: data near the NIC, comm thread far from the NIC,
// sweeping the number of computing cores.
//
// Campaign-API port of the old fig04_memory_contention main; SeedPolicy::
// kFixed keeps the tables byte-for-byte identical to the hand-written
// loops (which ran every point with the base scenario's seed).
#include "bench/registry.hpp"
#include "kernels/stream.hpp"

namespace cci::bench {
namespace {

core::Scenario fig04_base() {
  core::Scenario base;
  base.kernel = kernels::triad_traits();
  base.comm_thread = core::Placement::kFarFromNic;
  base.data = core::Placement::kNearNic;
  base.pingpong_iterations = 30;
  base.compute_repetitions = 5;
  base.target_pass_seconds = 0.02;
  return base;
}

int run(FigureContext& ctx) {
  using core::SweepPoint;
  using core::SideBySideResult;

  ctx.out() << "--- Fig. 4a: network latency (4 B) and STREAM bandwidth/core ---\n";
  core::Scenario base_lat = fig04_base();
  base_lat.message_bytes = 4;
  core::Campaign lat("fig04a_latency",
                     core::SweepSpec(base_lat)
                         .seed_policy(core::SeedPolicy::kFixed)
                         .cores("cores", core::paper_core_counts(35)));
  lat.column("lat_alone_us",
             [](const SweepPoint&, const SideBySideResult& r) {
               return sim::to_usec(r.comm_alone.latency.median);
             })
      .column("lat_together_us",
              [](const SweepPoint&, const SideBySideResult& r) {
                return sim::to_usec(r.comm_together.latency.median);
              })
      .column("lat_d1_us",
              [](const SweepPoint&, const SideBySideResult& r) {
                return sim::to_usec(r.comm_together.latency.decile1);
              })
      .column("lat_d9_us",
              [](const SweepPoint&, const SideBySideResult& r) {
                return sim::to_usec(r.comm_together.latency.decile9);
              })
      .column("stream_alone_GBps",
              [](const SweepPoint&, const SideBySideResult& r) {
                return r.compute_alone.per_core_bandwidth.median / 1e9;
              })
      .column("stream_together_GBps", core::Campaign::stream_per_core_gbps());
  core::CampaignRun lat_run = ctx.run(lat);
  ctx.print(lat, lat_run);
  for (std::size_t i = 0; i < lat_run.points.size(); ++i)
    ctx.obs().write_record({{"cores", lat_run.points[i].numeric[0]},
                            {"msg_bytes", 4.0},
                            {"lat_together_us", lat_run.values[i][1]}});
  ctx.out() << "\nPaper: latency impacted from ~22 cores, up to 2x at 35; "
               "STREAM unaffected.\n\n";

  ctx.out() << "--- Fig. 4b: network bandwidth (64 MB) and STREAM bandwidth/core ---\n";
  core::Scenario base_bw = fig04_base();
  base_bw.message_bytes = 64 << 20;
  base_bw.pingpong_iterations = 4;
  base_bw.pingpong_warmup = 1;
  core::Campaign bw("fig04b_bandwidth",
                    core::SweepSpec(base_bw)
                        .seed_policy(core::SeedPolicy::kFixed)
                        .cores("cores", core::paper_core_counts(35)));
  bw.column("net_alone_GBps",
            [](const SweepPoint&, const SideBySideResult& r) {
              return r.comm_alone.bandwidth.median / 1e9;
            })
      .column("net_together_GBps", core::Campaign::bandwidth_together_gbps())
      .column("stream_alone_GBps",
              [](const SweepPoint&, const SideBySideResult& r) {
                return r.compute_alone.per_core_bandwidth.median / 1e9;
              })
      .column("stream_together_GBps", core::Campaign::stream_per_core_gbps());
  core::CampaignRun bw_run = ctx.run(bw);
  ctx.print(bw, bw_run);
  ctx.out() << "\nPaper: bandwidth impacted from ~3 cores, ~2/3 lost at 35; "
               "STREAM loses <=25%\n(worst around 5 cores).\n";
  return 0;
}

const FigureRegistrar reg(
    "fig04", "Fig. 4", "STREAM vs network performance (data near NIC, comm thread far)",
    run);

}  // namespace
}  // namespace cci::bench
