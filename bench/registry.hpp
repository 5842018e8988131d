// Figure registry for the cci_bench multi-tool.
//
// Each paper figure, table and ablation registers one FigureDef: a name,
// banner metadata, and a run function.  One binary (`cci_bench <figure>
// [--jobs N] [--csv out.csv] [--cache dir] [--shard i/n] [--seed S]`)
// drives them all.  Figures written against the campaign API get the
// campaign flags; the others run their own loops and print to ctx.out().
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/campaign.hpp"

namespace cci::bench {

/// Everything a figure definition needs: the campaign engine (carrying
/// the CLI's jobs/cache/shard options), stdout, the optional CSV sink,
/// and the per-bench observability hookup.
class FigureContext {
 public:
  FigureContext(core::CampaignEngine& engine, BenchObs& obs, std::ostream& out,
                std::ostream* csv, std::ostream* timeline = nullptr)
      : engine_(engine), obs_(obs), out_(out), csv_(csv), timeline_(timeline) {}

  /// Run (the local shard of) a campaign through the engine.
  core::CampaignRun run(const core::Campaign& campaign) {
    ran_campaign_ = true;
    return engine_.run(campaign);
  }

  /// Print a finished campaign's table to stdout and, when --csv was
  /// given, append the same table as CSV (prefixed by the campaign name).
  /// When --timeline was given, also appends the run's time-resolved
  /// samples (`campaign,point,time,series,value`; header once per file).
  void print(const core::Campaign& campaign, const core::CampaignRun& run);

  core::CampaignEngine& engine() { return engine_; }
  BenchObs& obs() { return obs_; }
  std::ostream& out() { return out_; }
  /// Whether the figure ran any campaign (even one with no local points).
  [[nodiscard]] bool ran_campaign() const { return ran_campaign_; }

 private:
  core::CampaignEngine& engine_;
  BenchObs& obs_;
  std::ostream& out_;
  std::ostream* csv_;
  std::ostream* timeline_ = nullptr;
  bool timeline_header_written_ = false;
  bool ran_campaign_ = false;
};

using FigureFn = std::function<int(FigureContext&)>;

struct FigureDef {
  std::string name;      ///< CLI name: "fig04", "arch_sweep", ...
  std::string title;     ///< banner, e.g. "Fig. 4"
  std::string what;      ///< banner subtitle
  FigureFn fn;
};

class FigureRegistry {
 public:
  static FigureRegistry& instance();
  /// Throws std::logic_error naming the figure if the name is taken.
  void add(FigureDef def);
  [[nodiscard]] const FigureDef* find(const std::string& name) const;
  /// All registered figures, name-sorted.
  [[nodiscard]] std::vector<const FigureDef*> all() const;

 private:
  std::vector<FigureDef> defs_;
};

/// Static registrar: each bench/figures/*.cpp defines one at file scope.
struct FigureRegistrar {
  FigureRegistrar(std::string name, std::string title, std::string what, FigureFn fn);
};

/// cci_bench main: `cci_bench <figure> [flags]`, `cci_bench --list`.
int main_cli(int argc, char** argv);

}  // namespace cci::bench
