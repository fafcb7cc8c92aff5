// NUMA topology discovery for report headers and serve metrics. Nodes and
// their CPU lists are read from sysfs (/sys/devices/system/node) with no
// libnuma dependency; hosts without that tree (non-Linux, containers with a
// masked sysfs, single-socket machines exposing no node directories) degrade
// to a single synthetic node covering every online CPU. Serving pins no
// thread: topology is described, never acted on.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace haan::mem {

/// One NUMA node: its sysfs id and the online CPUs it owns.
struct NumaNode {
  int id = 0;
  std::vector<int> cpus;
};

/// Immutable node/CPU map. Always holds at least one node with at least one
/// CPU, so indexing code never needs an empty-topology branch.
class Topology {
 public:
  /// Reads `<root>/node<N>/cpulist` for every node directory under `root`.
  /// Falls back to single_node() when the tree is absent or yields no CPUs.
  /// Exposed (with the root parameter) so tests can point it at a fake tree.
  static Topology from_sysfs(const std::string& root);

  /// One synthetic node 0 covering every online CPU (the fallback path).
  static Topology single_node();

  /// Number of nodes (>= 1).
  std::size_t nodes() const { return nodes_.size(); }

  const NumaNode& node(std::size_t index) const { return nodes_[index]; }

  /// True when the map came from a sysfs node tree (false = fallback).
  bool discovered() const { return discovered_; }

  std::size_t total_cpus() const;

  /// "nodes=2 cpus=[0-23][24-47]" — for bench/report headers and logs.
  std::string describe() const;

 private:
  std::vector<NumaNode> nodes_;
  bool discovered_ = false;
};

/// The host topology, discovered once per process (thread-safe memoization).
const Topology& topology();

/// Parses a sysfs cpulist ("0-3,8,10-11") into sorted CPU ids. Malformed
/// segments, and segments reaching past the ids a cpu_set_t can hold, are
/// skipped; exposed for tests.
std::vector<int> parse_cpu_list(std::string_view text);

}  // namespace haan::mem
