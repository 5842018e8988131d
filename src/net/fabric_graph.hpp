// FabricGraph: the one description of a fabric's resources and routes.
//
// Every fabric resource — per-node tx/rx ports, switch crossbars,
// inter-switch links — has an integer key that is a pure function of the
// topology shape and the node count:
//
//     tx(n) = n            rx(n) = N + n
//     xbar(s) = 2N + s     link(li) = 2N + S + li
//
// and this class owns everything derived from that shape: each key's
// resource name and base capacity, the (switch, switch) -> link index and
// the route a transfer takes.  Two users materialize it:
//
//  * net::Cluster creates each key's resource as it builds — ports
//    interleaved with every node's machine and NIC resources, then the
//    crossbars and links — and routes every fabric_path() through route().
//    Cluster decides only the adaptive `via` (spine or intermediate group)
//    from live link utilization and its RNG.
//  * core::FabricLab::run_sharded builds one full replica per shard
//    (materialize(model): resource index == key) and plans static minimal
//    routes on the coordinator before any shard exists.  Resources the
//    routes of several shards share become boundary proxies
//    (sim::ShardGroup::add_boundary_link).
#pragma once

#include <string>
#include <vector>

#include "net/network_params.hpp"
#include "net/topology.hpp"
#include "sim/pool.hpp"

namespace cci::sim {
class FlowModel;
class Resource;
}  // namespace cci::sim

namespace cci::net {

class FabricGraph {
 public:
  /// Key sequence of one route.  Inline up to the longest route any
  /// builder emits (dragonfly via an intermediate group: 13 resources).
  using Route = sim::SmallVec<int, 16>;

  /// Shape-only construction: key space, names, base capacities and
  /// routes, no resources yet.  Throws std::invalid_argument unless
  /// 1 <= nodes <= topo.max_hosts() (when bounded).
  FabricGraph(const Topology& topo, const NetworkParams& net, int nodes);

  /// Create `key`'s resource in `model` with its name and base capacity.
  sim::Resource* materialize(sim::FlowModel& model, int key);
  /// Materialize every key in key order.  The model must be empty so that
  /// resource index == key (asserted); call inside ShardGroup::with_shard
  /// so pooled state binds to the worker thread.
  void materialize(sim::FlowModel& model);

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] int key_count() const {
    return 2 * nodes_ + switch_count_ + static_cast<int>(topo_.links().size());
  }
  [[nodiscard]] int tx_key(int node) const { return node; }
  [[nodiscard]] int rx_key(int node) const { return nodes_ + node; }
  [[nodiscard]] int xbar_key(int s) const { return 2 * nodes_ + s; }
  [[nodiscard]] int link_key(int li) const { return 2 * nodes_ + switch_count_ + li; }
  /// Index into Topology::links() of the link s1 -> s2, -1 when absent.
  [[nodiscard]] int link_index(int s1, int s2) const {
    return link_at_[static_cast<std::size_t>(s1) *
                        static_cast<std::size_t>(switch_count_) +
                    static_cast<std::size_t>(s2)];
  }

  /// Resource capacity (wire_bw scaled) before any degradation or proxy
  /// exchange.
  [[nodiscard]] double base_capacity(int key) const {
    return base_cap_[static_cast<std::size_t>(key)];
  }
  /// Resource name: "node3.tx", "switch", "switch.leaf0", "link.g0.r1-g1.r0".
  [[nodiscard]] std::string name(int key) const;
  /// Materialized resource for `key` (nullptr before materialize()).
  [[nodiscard]] sim::Resource* at(int key) const {
    return res_[static_cast<std::size_t>(key)];
  }

  /// Append the keys a transfer src -> dst crosses: tx port, switch
  /// traversal, rx port.  `via` is the fat-tree spine (0-based) or the
  /// dragonfly intermediate group of a Valiant detour; -1 takes the
  /// minimal route.  A pure function of the shape and `via`: never reads
  /// utilization, never draws an RNG.
  void route(int src, int dst, int via, Route& keys) const;
  /// route(src, dst, -1) appended to a plain vector.
  void minimal_path(int src, int dst, std::vector<int>& keys) const;

 private:
  /// Hop s1 -> s2 inside the switch graph (link then crossbar); none when
  /// s1 == s2.
  void hop(int s1, int s2, Route& keys) const;

  Topology topo_;
  int nodes_ = 0;
  int switch_count_ = 0;
  std::vector<int> link_at_;  ///< link_at_[src * S + dst], -1 = no link
  std::vector<double> base_cap_;
  std::vector<sim::Resource*> res_;
};

}  // namespace cci::net
