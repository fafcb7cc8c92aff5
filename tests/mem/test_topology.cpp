// Topology discovery: cpulist parsing, sysfs-tree discovery against a fake
// root, the single-node fallback, CPU->node lookups and round-robin slot
// wrapping.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mem/topology.hpp"

namespace haan::mem {
namespace {

namespace fs = std::filesystem;

/// Writes a fake /sys/devices/system/node tree under a fresh temp directory.
class FakeSysfs {
 public:
  FakeSysfs() {
    root_ = fs::temp_directory_path() /
            ("haan_topo_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~FakeSysfs() { fs::remove_all(root_); }

  void add_node(int id, const std::string& cpulist) {
    const fs::path dir = root_ / ("node" + std::to_string(id));
    fs::create_directories(dir);
    std::ofstream(dir / "cpulist") << cpulist << "\n";
  }

  std::string root() const { return root_.string(); }

 private:
  fs::path root_;
};

TEST(ParseCpuList, RangesSinglesAndMixes) {
  EXPECT_EQ(parse_cpu_list("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list("5"), (std::vector<int>{5}));
  EXPECT_EQ(parse_cpu_list("0-1"), (std::vector<int>{0, 1}));
  EXPECT_EQ(parse_cpu_list("2,0"), (std::vector<int>{0, 2}));  // sorted
  EXPECT_EQ(parse_cpu_list("  4-5 \n"), (std::vector<int>{4, 5}));
}

TEST(ParseCpuList, MalformedSegmentsAreSkipped) {
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_TRUE(parse_cpu_list("abc").empty());
  EXPECT_EQ(parse_cpu_list("abc,7"), (std::vector<int>{7}));
}

TEST(ParseCpuList, HugeRangesAreSkippedNotExpanded) {
  // An id past what a cpu_set_t holds cannot be pinned; expanding such a
  // range would push ~2^31 ints (and overflow the loop counter at INT_MAX).
  EXPECT_TRUE(parse_cpu_list("0-2147483647").empty());
  EXPECT_EQ(parse_cpu_list("0-3,5-2147483647"), (std::vector<int>{0, 1, 2, 3}));
}

TEST(Topology, FromSysfsDiscoversNodesAndCpus) {
  FakeSysfs sysfs;
  sysfs.add_node(0, "0-3");
  sysfs.add_node(1, "4-5");
  const Topology topo = Topology::from_sysfs(sysfs.root());
  ASSERT_TRUE(topo.discovered());
  ASSERT_EQ(topo.nodes(), 2u);
  EXPECT_EQ(topo.node(0).id, 0);
  EXPECT_EQ(topo.node(0).cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.node(1).cpus, (std::vector<int>{4, 5}));
  EXPECT_EQ(topo.total_cpus(), 6u);

  EXPECT_EQ(topo.describe(), "nodes=2 cpus=[0-3][4-5]");
}

TEST(Topology, MissingTreeFallsBackToSingleNode) {
  const Topology topo = Topology::from_sysfs("/nonexistent/haan/nodes");
  EXPECT_FALSE(topo.discovered());
  ASSERT_EQ(topo.nodes(), 1u);
  EXPECT_GE(topo.node(0).cpus.size(), 1u);
  EXPECT_GE(topo.total_cpus(), 1u);
}

TEST(Topology, EmptyNodeDirectoriesFallBackToSingleNode) {
  FakeSysfs sysfs;  // a node tree whose cpulists yield no CPUs
  sysfs.add_node(0, "garbage");
  const Topology topo = Topology::from_sysfs(sysfs.root());
  EXPECT_FALSE(topo.discovered());
  ASSERT_EQ(topo.nodes(), 1u);
  EXPECT_GE(topo.node(0).cpus.size(), 1u);
}

TEST(Topology, ProcessTopologyIsUsableOnAnyHost) {
  // Whatever this host exposes, the memoized topology must satisfy the
  // invariants indexing code relies on: >= 1 node, >= 1 CPU.
  const Topology& topo = topology();
  ASSERT_GE(topo.nodes(), 1u);
  EXPECT_GE(topo.total_cpus(), 1u);
  EXPECT_FALSE(topo.describe().empty());
}

}  // namespace
}  // namespace haan::mem
