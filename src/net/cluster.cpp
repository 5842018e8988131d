#include "net/cluster.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "hw/frequency_governor.hpp"
#include "net/faults.hpp"
#include "sim/flow_model.hpp"

namespace cci::net {

Cluster::Cluster(ClusterSpec spec)
    : net_(std::move(spec.network)),
      fabric_(spec.topology, net_, spec.nodes),
      model_(engine_),
      rng_(spec.seed) {
  // Each node's ports follow its machine and NIC resources, then every
  // crossbar and link.  Figures' bytes depend on this solver resource
  // order, so it differs from the graph's key order.
  const int nodes = fabric_.nodes();
  node_res_begin_.reserve(static_cast<std::size_t>(nodes) + 1);
  for (int i = 0; i < nodes; ++i) {
    node_res_begin_.push_back(model_.solver().resource_count());
    std::string prefix = "node" + std::to_string(i) + ".";
    machines_.push_back(std::make_unique<hw::Machine>(model_, spec.machine, prefix));
    nics_.push_back(std::make_unique<Nic>(*machines_.back(), net_, prefix));
    fabric_.materialize(model_, fabric_.tx_key(i));
    fabric_.materialize(model_, fabric_.rx_key(i));
  }
  node_res_begin_.push_back(model_.solver().resource_count());
  for (int key = fabric_.xbar_key(0); key < fabric_.key_count(); ++key)
    fabric_resources_.push_back(fabric_.materialize(model_, key));
  link_res_.assign(fabric_resources_.begin() + topology().switch_count(),
                   fabric_resources_.end());
  if (topology().kind() != Topology::Kind::kSingleSwitch) {
    obs_routes_ = &obs::Registry::global().counter("net.fabric.routes");
    obs_reroutes_ = &obs::Registry::global().counter("net.fabric.adaptive_reroutes");
  }
  faults_ = std::make_unique<FaultState>();
}

Cluster::~Cluster() = default;

FaultState& Cluster::faults() { return *faults_; }

sim::Resource* Cluster::tx_port(int node) {
  if (node < 0 || node >= node_count())
    throw std::out_of_range("Cluster::tx_port: no node " + std::to_string(node));
  return fabric_.at(fabric_.tx_key(node));
}

sim::Resource* Cluster::rx_port(int node) {
  if (node < 0 || node >= node_count())
    throw std::out_of_range("Cluster::rx_port: no node " + std::to_string(node));
  return fabric_.at(fabric_.rx_key(node));
}

sim::Resource* Cluster::find_link(std::string_view name) const {
  for (sim::Resource* r : fabric_resources_)
    if (r->name() == name) return r;
  return nullptr;
}

double Cluster::link_utilization(int s1, int s2) const {
  return fabric_.at(fabric_.link_key(fabric_.link_index(s1, s2)))->utilization();
}

void Cluster::note_route(int src, int dst, int via) {
  if (!route_trace_enabled_ || route_trace_cap_ == 0) return;
  if (route_trace_.size() < route_trace_cap_) {
    route_trace_.push_back({src, dst, via});
    return;
  }
  route_trace_[route_trace_head_] = {src, dst, via};
  route_trace_head_ = (route_trace_head_ + 1) % route_trace_cap_;
  ++route_trace_dropped_;
}

std::vector<Cluster::RouteChoice> Cluster::route_trace() const {
  std::vector<RouteChoice> out;
  out.reserve(route_trace_.size());
  // Oldest first: once the ring wrapped, head_ is the oldest slot.
  for (std::size_t i = 0; i < route_trace_.size(); ++i)
    out.push_back(route_trace_[(route_trace_head_ + i) % route_trace_.size()]);
  return out;
}

void Cluster::set_route_trace_capacity(std::size_t cap) {
  route_trace_cap_ = cap;
  route_trace_.clear();
  route_trace_head_ = 0;
  route_trace_dropped_ = 0;
}

Cluster::FabricPath Cluster::fabric_path(int src, int dst) {
  const int via =
      topology().kind() == Topology::Kind::kSingleSwitch ? -1 : choose_via(src, dst);
  FabricGraph::Route keys;
  fabric_.route(src, dst, via, keys);
  FabricPath path;
  for (int key : keys) path.push_back(fabric_.at(key));
  return path;
}

int Cluster::choose_via(int src, int dst) {
  obs_routes_->add(1);
  const Topology& topo = topology();
  const int ss = topo.host_switch(src);
  const int sd = topo.host_switch(dst);
  if (ss == sd) return -1;  // stays inside the edge switch's crossbar
  const int via =
      topo.kind() == Topology::Kind::kFatTree ? spine_via(ss, sd) : group_via(ss, sd);
  note_route(src, dst, via);
  return via;
}

namespace {
/// The candidate in [0, n) with the least cost when that beats `current`,
/// else -1.  Exact ties break through `rng` (deterministic per
/// seed/schedule).
template <class Cost>
int least_loaded(int n, double current, Cost cost, sim::Rng& rng) {
  double best = current;
  for (int c = 0; c < n; ++c) best = std::min(best, cost(c));
  if (best >= current) return -1;
  std::uint64_t ties = 0;
  for (int c = 0; c < n; ++c) ties += cost(c) == best ? 1 : 0;
  std::uint64_t pick = ties == 1 ? 0 : rng.below(ties);
  for (int c = 0; c < n; ++c)
    if (cost(c) == best && pick-- == 0) return c;
  return -1;
}
}  // namespace

int Cluster::spine_via(int ls, int ld) {
  const Topology& topo = topology();
  const int minimal = topo.minimal_spine(ls, ld);
  if (topo.routing() != RoutingPolicy::kAdaptive) return minimal;
  const int k = topo.param_k();
  auto cost = [&](int s) {
    return std::max(link_utilization(ls, k + s), link_utilization(k + s, ld));
  };
  const double u_min = cost(minimal);
  if (u_min <= topo.threshold()) return minimal;
  // Deviate to the least-loaded spine.
  const int via = least_loaded(k / 2, u_min, cost, rng_);
  if (via < 0) return minimal;
  obs_reroutes_->add(1);
  return via;
}

int Cluster::group_via(int rs, int rd) {
  // Cross-group: minimal is one global hop; adaptive may go Valiant via an
  // intermediate group when the minimal global link is congested.
  const Topology& topo = topology();
  const int g = topo.group_of_switch(rs);
  const int h = topo.group_of_switch(rd);
  if (g == h || topo.routing() != RoutingPolicy::kAdaptive || topo.param_groups() <= 2)
    return -1;
  auto global_util = [&](int from, int to) {
    return link_utilization(topo.gateway_router(from, to), topo.gateway_router(to, from));
  };
  const double u_min = global_util(g, h);
  if (u_min <= topo.threshold()) return -1;
  // Valiant detour doubles the global hops, so it must beat the minimal
  // link by 2x to win (UGAL-style comparison).
  auto detour = [&](int k) {
    return k == g || k == h ? std::numeric_limits<double>::infinity()
                            : 2.0 * std::max(global_util(g, k), global_util(k, h));
  };
  const int via = least_loaded(topo.param_groups(), u_min, detour, rng_);
  if (via >= 0) obs_reroutes_->add(1);
  return via;
}

std::vector<int> Cluster::resource_groups() const {
  const Topology& topo = topology();
  std::vector<int> groups(model_.solver().resource_count(), -1);
  for (std::size_t n = 0; n + 1 < node_res_begin_.size(); ++n) {
    const int group = topo.group_of_node(static_cast<int>(n));
    for (std::size_t i = node_res_begin_[n]; i < node_res_begin_[n + 1]; ++i)
      groups[i] = group;
  }
  for (int s = 0; s < topo.switch_count(); ++s)
    groups[fabric_resources_[static_cast<std::size_t>(s)]->index()] = topo.group_of_switch(s);
  const auto& links = topo.links();
  for (std::size_t li = 0; li < links.size(); ++li) {
    const int ga = topo.group_of_switch(links[li].src);
    const int gb = topo.group_of_switch(links[li].dst);
    groups[link_res_[li]->index()] = (ga == gb && ga >= 0) ? ga : -1;
  }
  return groups;
}

void Nic::refresh_dma_capacity() {
  const auto& cfg = machine_.config();
  double u = machine_.governor().uncore_freq(socket());
  double span = cfg.uncore_freq_max_hz - cfg.uncore_freq_min_hz;
  double x = span > 0.0 ? (u - cfg.uncore_freq_min_hz) / span : 1.0;
  x = x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x);
  double bw = (params_.dma_bw_min_uncore +
               (params_.dma_bw_max_uncore - params_.dma_bw_min_uncore) * x) *
              degradation_;
  if (dma_engine_->capacity() != bw) dma_engine_->set_capacity(bw);
}

}  // namespace cci::net
