#include "mem/topology.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <thread>

#ifdef __linux__
#include <dirent.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace haan::mem {

namespace {

/// CPU ids at or above this cannot be placed in a cpu_set_t, so a cpulist
/// segment reaching them is unusable for pinning.
#ifdef CPU_SETSIZE
constexpr int kCpuIdLimit = CPU_SETSIZE;
#else
constexpr int kCpuIdLimit = 1024;
#endif

std::vector<int> online_cpus_fallback() {
#ifdef __linux__
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t n = online > 0 ? static_cast<std::size_t>(online) : 1;
#else
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t n = hw > 0 ? hw : 1;
#endif
  std::vector<int> cpus(n);
  for (std::size_t i = 0; i < n; ++i) cpus[i] = static_cast<int>(i);
  return cpus;
}

}  // namespace

std::vector<int> parse_cpu_list(std::string_view text) {
  std::vector<int> cpus;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view seg = text.substr(pos, end - pos);
    pos = end + 1;
    // Trim whitespace (sysfs files end in '\n').
    while (!seg.empty() && std::isspace(static_cast<unsigned char>(seg.front()))) {
      seg.remove_prefix(1);
    }
    while (!seg.empty() && std::isspace(static_cast<unsigned char>(seg.back()))) {
      seg.remove_suffix(1);
    }
    if (seg.empty()) continue;
    int lo = 0;
    int hi = 0;
    const std::size_t dash = seg.find('-');
    const char* seg_end = seg.data() + seg.size();
    if (dash == std::string_view::npos) {
      if (std::from_chars(seg.data(), seg_end, lo).ec != std::errc{}) continue;
      hi = lo;
    } else {
      const char* lo_end = seg.data() + dash;
      if (std::from_chars(seg.data(), lo_end, lo).ec != std::errc{}) continue;
      if (std::from_chars(lo_end + 1, seg_end, hi).ec != std::errc{}) continue;
    }
    if (lo < 0 || hi < lo || hi >= kCpuIdLimit) continue;
    for (int c = lo; c <= hi; ++c) cpus.push_back(c);
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

Topology Topology::single_node() {
  Topology t;
  t.nodes_.push_back(NumaNode{0, online_cpus_fallback()});
  t.discovered_ = false;
  return t;
}

Topology Topology::from_sysfs(const std::string& root) {
  Topology t;
#ifdef __linux__
  if (DIR* dir = opendir(root.c_str())) {
    while (const dirent* entry = readdir(dir)) {
      const std::string_view name = entry->d_name;
      if (name.size() <= 4 || name.substr(0, 4) != "node") continue;
      int id = 0;
      const char* id_begin = name.data() + 4;
      const char* id_end = name.data() + name.size();
      if (std::from_chars(id_begin, id_end, id).ec != std::errc{} || id < 0) {
        continue;
      }
      std::ifstream cpulist(root + "/" + std::string(name) + "/cpulist");
      if (!cpulist) continue;
      std::stringstream buffer;
      buffer << cpulist.rdbuf();
      std::vector<int> cpus = parse_cpu_list(buffer.str());
      // Memory-only nodes (no CPUs) exist on some hosts; they are dropped
      // from the map.
      if (cpus.empty()) continue;
      t.nodes_.push_back(NumaNode{id, std::move(cpus)});
    }
    closedir(dir);
  }
#else
  (void)root;
#endif
  if (t.nodes_.empty()) return single_node();
  std::sort(t.nodes_.begin(), t.nodes_.end(),
            [](const NumaNode& a, const NumaNode& b) { return a.id < b.id; });
  t.discovered_ = true;
  return t;
}

std::size_t Topology::total_cpus() const {
  std::size_t n = 0;
  for (const NumaNode& node : nodes_) n += node.cpus.size();
  return n;
}

std::string Topology::describe() const {
  std::ostringstream out;
  out << "nodes=" << nodes_.size() << " cpus=";
  for (const NumaNode& node : nodes_) {
    out << "[";
    // Compress runs, mirroring the sysfs cpulist format.
    for (std::size_t i = 0; i < node.cpus.size();) {
      std::size_t j = i;
      while (j + 1 < node.cpus.size() &&
             node.cpus[j + 1] == node.cpus[j] + 1) {
        ++j;
      }
      if (i != 0) out << ",";
      out << node.cpus[i];
      if (j > i) out << "-" << node.cpus[j];
      i = j + 1;
    }
    out << "]";
  }
  return out.str();
}

const Topology& topology() {
  static const Topology t = Topology::from_sysfs("/sys/devices/system/node");
  return t;
}

}  // namespace haan::mem
