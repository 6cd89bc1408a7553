// Flat routing table of a Topology: the one topology -> array compile that
// the lock-free runtime (rt::CompiledNetwork) and every simulator build
// from. Each balancer's output ports are laid out contiguously, so a token
// leaving balancer b on port p goes to route[route_base[b] + p].
#pragma once

#include <cstdint>
#include <vector>

#include "cnet/topology/topology.hpp"

namespace cnet::topo {

struct Routing {
  // Route entries: >= 0 is the consuming balancer's index, negative is
  // ~output_position (a token that reaches it leaves the network there).
  std::vector<std::uint32_t> fanout;      // per balancer
  std::vector<std::uint32_t> route_base;  // per balancer: offset into route
  std::vector<std::int32_t> route;        // per balancer output port
  std::vector<std::int32_t> entry;        // per network input wire
};

// Balancer creation order is topological (topology.hpp), so every
// balancer -> balancer entry of the result points to a higher index.
Routing compile_routing(const Topology& net);

}  // namespace cnet::topo
