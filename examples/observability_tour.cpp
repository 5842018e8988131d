// Observability tour: the cross-layer metrics registry and span tracer
// (src/obs), plus the simulated-time sampler's hardware-counter views
// (the pmu-tools substitute): memory-controller load and frequency
// residency — the instruments behind Fig. 2/3/10.
//
// The tour enables the global obs::Registry up front, runs a small
// task-DAG workload under a sampler, dumps every metric the layers
// recorded, and writes a Chrome trace file (open it at
// https://ui.perfetto.dev).
#include <algorithm>
#include <iostream>
#include <map>

#include "kernels/stream.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "runtime/runtime.hpp"
#include "trace/metrics_table.hpp"
#include "trace/table.hpp"

int main() {
  using namespace cci;
  // Turn on metrics + tracing before any instrumented object is built, so
  // constructors see the enabled registry and cache live handles.
  obs::Registry::global().set_enabled(true);
  obs::Registry::global().tracer().set_enabled(true);

  // Every 0.5 ms of simulated time the sampler records what changed in the
  // registry: gauge values (utilization, pressure, frequencies) and counter
  // deltas (work moved through each resource).
  obs::TimelineStore timeline;
  obs::SamplerConfig sampling;
  sampling.period = 0.5e-3;
  obs::Sampler sampler(obs::Registry::global(), timeline, sampling);

  net::Cluster cluster(hw::MachineConfig::henri(), net::NetworkParams::ib_edr());
  mpi::World world(cluster, {{0, -1}, {1, -1}});
  cluster.engine().set_sampler(&sampler);

  runtime::RuntimeConfig cfg = runtime::RuntimeConfig::for_machine("henri");
  cfg.workers = 8;
  runtime::Runtime rt(world, 0, cfg);
  rt.enable_execution_trace(true);
  hw::KernelTraits triad = kernels::triad_traits();
  // A small diamond DAG: fan-out of STREAM chunks, then a join.
  runtime::Task* head = rt.add_task({"seed", triad, 5e6}, 0);
  std::vector<runtime::Task*> mids;
  for (int i = 0; i < 8; ++i) {
    runtime::Task* m = rt.add_task({"chunk" + std::to_string(i), triad, 2e7}, i % 4);
    runtime::Runtime::add_dependency(head, m);
    mids.push_back(m);
  }
  runtime::Task* tail = rt.add_task({"join", triad, 5e6}, 0);
  for (auto* m : mids) runtime::Runtime::add_dependency(m, tail);

  auto& done = rt.run();
  cluster.engine().spawn([](runtime::Runtime& r, sim::OneShotEvent& d) -> sim::Coro {
    co_await d;
    r.shutdown();
  }(rt, done));
  cluster.engine().run();
  // The sampler only records at ticks: one more flushes the last partial
  // period, whose work would otherwise be missing from the timeline.
  const double end = sampler.next_tick();
  sampler.advance_to(end);

  std::cout << "Task execution trace (Gantt rows):\n";
  trace::Table gantt({"task", "core", "data_numa", "start_ms", "end_ms"});
  for (const auto& rec : rt.execution_trace())
    gantt.add_text_row({rec.name, std::to_string(rec.core), std::to_string(rec.data_numa),
                        trace::fmt(rec.start * 1e3, 3),
                        trace::fmt(rec.end * 1e3, 3)});
  gantt.print(std::cout);

  // Gauge rows mark changes, so a value holds until the series' next row
  // (or the end of the run): that step function gives time-weighted means
  // and residencies.  Counter rows are deltas: their sum is the total.
  auto rows = [&](const std::string& series) {
    std::vector<obs::TimelineRow> out;
    for (std::size_t i = 0; i < timeline.size(); ++i)
      if (timeline.series_names()[timeline.row(i).series] == series)
        out.push_back(timeline.row(i));
    return out;
  };
  auto residency = [&](const std::string& series) {
    std::map<double, double> held;  // value -> seconds
    const std::vector<obs::TimelineRow> r = rows(series);
    for (std::size_t i = 0; i < r.size(); ++i)
      held[r[i].value] += (i + 1 < r.size() ? r[i + 1].time : end) - r[i].time;
    return held;
  };

  std::cout << "\nMemory-controller counters (node 0, from the sampler timeline):\n";
  trace::Table ctrl({"numa", "mean_util", "peak_pressure", "GB_moved"});
  for (int n = 0; n < 4; ++n) {
    const std::string res = "sim.resource." + cluster.machine(0).mem_ctrl(n)->name();
    double mean_util = 0.0;
    for (const auto& [util, seconds] : residency(res + ".utilization"))
      mean_util += util * seconds / end;
    double peak_pressure = 0.0;
    for (const obs::TimelineRow& row : rows(res + ".pressure"))
      peak_pressure = std::max(peak_pressure, row.value);
    double bytes = 0.0;
    for (const obs::TimelineRow& row : rows(res + ".work_units")) bytes += row.value;
    ctrl.add_text_row({std::to_string(n), trace::fmt(mean_util, 2),
                       trace::fmt(peak_pressure, 2), trace::fmt(bytes / 1e9, 3)});
  }
  ctrl.print(std::cout);

  std::cout << "\nFrequency residency of core 0 (seconds at each frequency):\n";
  for (auto& [freq, seconds] : residency("hw.freq.node0.core0_hz"))
    if (seconds > 0.0)
      std::cout << "  " << freq / 1e9 << " GHz : " << trace::format_time(seconds) << "\n";

  // Everything above was also captured by the cross-layer registry: dump
  // it (name-sorted, deterministic) and export the span timeline.
  std::cout << "\nCross-layer metrics registry (obs::Registry snapshot):\n";
  trace::metrics_table(obs::Registry::global().snapshot()).print(std::cout);

  const std::string trace_path = "observability_tour.trace.json";
  obs::write_chrome_trace_file(trace_path, obs::Registry::global());
  const auto& tracer = obs::Registry::global().tracer();
  std::cout << "\nChrome trace: " << tracer.spans().size() << " spans on "
            << tracer.track_names().size() << " tracks -> " << trace_path
            << " (load in https://ui.perfetto.dev)\n";
  return 0;
}
