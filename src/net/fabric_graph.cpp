#include "net/fabric_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/flow_model.hpp"
#include "sim/maxmin.hpp"
#include "sim/resource.hpp"

namespace cci::net {

FabricGraph::FabricGraph(const Topology& topo, const NetworkParams& net, int nodes)
    : topo_(topo), nodes_(nodes), switch_count_(topo.switch_count()) {
  if (nodes < 1) throw std::invalid_argument("FabricGraph: nodes must be >= 1");
  if (topo.max_hosts() > 0 && nodes > topo.max_hosts())
    throw std::invalid_argument("FabricGraph: topology attaches at most " +
                                std::to_string(topo.max_hosts()) + " hosts, got " +
                                std::to_string(nodes));
  const int S = switch_count_;
  const auto& links = topo_.links();
  link_at_.assign(static_cast<std::size_t>(S) * static_cast<std::size_t>(S), -1);
  for (std::size_t li = 0; li < links.size(); ++li)
    link_at_[static_cast<std::size_t>(links[li].src) * static_cast<std::size_t>(S) +
             static_cast<std::size_t>(links[li].dst)] = static_cast<int>(li);

  // Base capacities in key order: tx ports, rx ports, switch crossbars,
  // links.
  base_cap_.assign(static_cast<std::size_t>(2 * nodes_), net.wire_bw);
  if (topo_.kind() == Topology::Kind::kSingleSwitch) {
    // The historical fabric: one crossbar scaling with the node count.
    base_cap_.push_back(net.wire_bw * static_cast<double>(nodes_) *
                        topo_.oversubscription());
  } else {
    // Crossbars are internally non-blocking, congestion lives on ports and
    // links: capacity = hosts actually attached + ingress link capacity.
    std::vector<int> hosts_at(static_cast<std::size_t>(S), 0);
    for (int n = 0; n < nodes_; ++n)
      ++hosts_at[static_cast<std::size_t>(topo_.host_switch(n))];
    std::vector<double> ingress(static_cast<std::size_t>(S), 0.0);
    for (const Topology::Link& l : links)
      ingress[static_cast<std::size_t>(l.dst)] += l.bw_scale;
    for (int s = 0; s < S; ++s) {
      const double ports = static_cast<double>(hosts_at[static_cast<std::size_t>(s)]) +
                           ingress[static_cast<std::size_t>(s)];
      base_cap_.push_back(net.wire_bw * std::max(ports, 1.0));
    }
  }
  for (const Topology::Link& l : links) base_cap_.push_back(net.wire_bw * l.bw_scale);
  res_.assign(static_cast<std::size_t>(key_count()), nullptr);
}

std::string FabricGraph::name(int key) const {
  if (key < 2 * nodes_)
    return "node" + std::to_string(key % nodes_) + (key < nodes_ ? ".tx" : ".rx");
  if (key < link_key(0)) {
    if (topo_.kind() == Topology::Kind::kSingleSwitch) return "switch";
    return "switch." + topo_.switch_name(key - xbar_key(0));
  }
  const Topology::Link& l = topo_.links()[static_cast<std::size_t>(key - link_key(0))];
  return "link." + topo_.switch_name(l.src) + "-" + topo_.switch_name(l.dst);
}

sim::Resource* FabricGraph::materialize(sim::FlowModel& model, int key) {
  sim::Resource* r = model.add_resource(name(key), base_capacity(key));
  res_[static_cast<std::size_t>(key)] = r;
  return r;
}

void FabricGraph::materialize(sim::FlowModel& model) {
  assert(model.solver().resource_count() == 0 &&
         "FabricGraph::materialize: model must be empty so index == key");
  for (int k = 0; k < key_count(); ++k) materialize(model, k);
}

void FabricGraph::hop(int s1, int s2, Route& keys) const {
  if (s1 == s2) return;
  keys.push_back(link_key(link_index(s1, s2)));
  keys.push_back(xbar_key(s2));
}

void FabricGraph::route(int src, int dst, int via, Route& keys) const {
  keys.push_back(tx_key(src));
  const int ss = topo_.host_switch(src);
  const int sd = topo_.host_switch(dst);
  keys.push_back(xbar_key(ss));
  switch (topo_.kind()) {
    case Topology::Kind::kSingleSwitch:
      break;
    case Topology::Kind::kFatTree:
      if (ss != sd) {
        const int spine =
            topo_.param_k() + (via >= 0 ? via : topo_.minimal_spine(ss, sd));
        hop(ss, spine, keys);
        hop(spine, sd, keys);
      }
      break;
    case Topology::Kind::kDragonfly: {
      // Cross-group: one global hop between gateway routers, or two via an
      // intermediate group; local mesh hops to and from the gateways.
      const int g = topo_.group_of_switch(ss);
      const int h = topo_.group_of_switch(sd);
      int cur = ss;
      auto global_hop = [&](int from, int to) {
        const int out = topo_.gateway_router(from, to);
        hop(cur, out, keys);
        cur = topo_.gateway_router(to, from);
        hop(out, cur, keys);
      };
      if (g != h) {
        if (via >= 0) global_hop(g, via);
        global_hop(via >= 0 ? via : g, h);
      }
      hop(cur, sd, keys);
      break;
    }
  }
  keys.push_back(rx_key(dst));
}

void FabricGraph::minimal_path(int src, int dst, std::vector<int>& keys) const {
  Route r;
  route(src, dst, -1, r);
  keys.insert(keys.end(), r.begin(), r.end());
}

}  // namespace cci::net
