// Static description of a node type, calibrated from the paper's §2.2.
//
// Capacities are deliberately *plausible spec-sheet numbers*, not fitted
// constants: the reproduction targets shapes (onsets, crossovers, relative
// losses), which must emerge from the sharing model, not from tuning every
// figure independently.
#pragma once

#include <string>
#include <vector>

namespace cci::hw {

/// Instruction class executed by a core; selects the turbo licence and the
/// per-cycle flop throughput.
enum class VectorClass { kScalar, kSse, kAvx2, kAvx512, kNeon };

const char* to_string(VectorClass vc);

/// One row of a turbo table: with up to `max_active_cores` active cores on
/// the socket, cores running under this licence may clock at `freq_hz`.
struct TurboStep {
  int max_active_cores;
  double freq_hz;
};

struct MachineConfig {
  std::string name;

  // ---- topology ----------------------------------------------------------
  int sockets = 2;
  int numa_per_socket = 1;
  int cores_per_numa = 0;
  /// NUMA node to which the NIC's PCIe root is attached.
  int nic_numa = 0;

  // ---- core frequency ----------------------------------------------------
  double core_freq_min_hz = 0;      ///< lowest userspace setting
  double core_freq_nominal_hz = 0;  ///< base (non-turbo) frequency
  /// Turbo tables per licence, ordered by max_active_cores ascending.
  std::vector<TurboStep> turbo_scalar;
  std::vector<TurboStep> turbo_avx2;
  std::vector<TurboStep> turbo_avx512;
  /// The paper observes the communication core at a stable frequency (its
  /// duty cycle keeps the governor pinned); we reproduce that directly.
  double comm_core_freq_hz = 0;
  /// DVFS transition latency: time between a governor decision and the
  /// core actually clocking at the new frequency (voltage ramp; tens of
  /// microseconds on real parts).  0 = instantaneous (the default used by
  /// the figure benches; enable for ramp-delay studies).
  double dvfs_transition_latency = 0;

  // ---- uncore ------------------------------------------------------------
  double uncore_freq_min_hz = 0;
  double uncore_freq_max_hz = 0;
  /// Fraction of memory-controller capacity retained at minimum uncore
  /// frequency (LLC/mesh slowdown).
  double uncore_min_mem_scale = 0.75;
  /// Relative memory-latency penalty at minimum uncore frequency (LLC and
  /// mesh run slower, stretching each access).
  double uncore_latency_penalty = 0.25;

  // ---- flop throughput (per core, per cycle, double precision) -----------
  double flops_per_cycle_scalar = 2.0;   // 1 FMA pipe, scalar
  double flops_per_cycle_avx2 = 16.0;    // 2x 4-wide FMA
  double flops_per_cycle_avx512 = 32.0;  // 2x 8-wide FMA

  // ---- memory system -----------------------------------------------------
  /// Sustained STREAM-class bandwidth of one NUMA node's controller (B/s).
  double mem_bw_per_numa = 0;
  /// What a single core can pull on its own (MLP-limited), B/s.
  double per_core_mem_bw = 0;
  /// Inter-socket link (UPI / Infinity Fabric / CCPI), B/s.
  double cross_socket_bw = 0;
  /// Intra-socket link between NUMA nodes of one socket (SNC mesh), B/s.
  double intra_socket_bw = 0;
  /// Last-level cache per socket (bytes); working sets below this are
  /// served from cache (KernelTraits::dram_fraction).
  double llc_bytes_per_socket = 0;
  /// Uncontended DRAM access latency seen by a core or the NIC (s).
  double mem_latency = 0;
  /// Extra one-way latency when crossing the inter-socket link (s).
  double cross_socket_latency = 0;

  // ---- contention -> latency coupling ------------------------------------
  /// Queueing-delay inflation: a memory transaction crossing a resource
  /// with demand pressure P is stretched by 1 + kappa * min(P, clamp)^2.
  double queueing_kappa = 0.35;
  double queueing_pressure_clamp = 3.0;

  // ---- DMA weighting ------------------------------------------------------
  /// Sharing weight of NIC DMA flows against per-core memory streams
  /// (weight * demand = bytes/s per max-min scale unit; a core stream has
  /// weight*demand == 1).  1.2 puts the bandwidth-degradation onset at 3-4
  /// computing cores on henri, as in Fig. 4b; the asymptotic loss at full
  /// machine is then somewhat deeper than the paper's ~2/3 (weighted
  /// max-min cannot hit both ends at once — see DESIGN.md §5).
  double nic_dma_weight = 1.2;

  // ---- derived helpers ----------------------------------------------------
  [[nodiscard]] int numa_count() const { return sockets * numa_per_socket; }
  [[nodiscard]] int total_cores() const { return numa_count() * cores_per_numa; }
  [[nodiscard]] int socket_of_numa(int numa) const { return numa / numa_per_socket; }
  [[nodiscard]] int numa_of_core(int core) const { return core / cores_per_numa; }
  [[nodiscard]] int socket_of_core(int core) const { return socket_of_numa(numa_of_core(core)); }
  /// Cores are numbered socket by socket: socket s owns the contiguous
  /// range [first_core_of_socket(s), first_core_of_socket(s + 1)).
  [[nodiscard]] int cores_per_socket() const { return numa_per_socket * cores_per_numa; }
  [[nodiscard]] int first_core_of_socket(int socket) const { return socket * cores_per_socket(); }
  [[nodiscard]] double flops_per_cycle(VectorClass vc) const;
  /// Turbo frequency for `active` busy cores on a socket under `vc`.
  [[nodiscard]] double turbo_freq(VectorClass vc, int active) const;

  // ---- presets (paper §2.2) ------------------------------------------------
  /// Dual Xeon Gold 6140, 36 cores / 4 NUMA, InfiniBand ConnectX-4 EDR.
  static MachineConfig henri();
  /// Dual Xeon Gold 6240, 36 cores / 2 NUMA, Intel Omni-Path 100.
  static MachineConfig bora();
  /// Dual AMD EPYC 7502 (Zen2), 64 cores / 8 NUMA, InfiniBand ConnectX-6 HDR.
  static MachineConfig billy();
  /// Dual Cavium ThunderX2, 64 cores / 2 NUMA, InfiniBand ConnectX-6 EDR.
  static MachineConfig pyxis();
  /// All four presets, for sweeps across architectures.
  static std::vector<MachineConfig> all_presets();
};

}  // namespace cci::hw
