#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/rng.h"
#include "hypergraph/builder.h"

namespace perfbench {

namespace {

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  // JSON has no NaN/inf: a metric that cannot be computed is a failed
  // check, never a silently invented number.
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = -1.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.push_back(key + "=" + value);
}

void Report::Info(const std::string& key, double value) {
  Info(key, FormatNumber(value));
}

void Report::Attempt(const mochy::Status& status, const std::string& what) {
  ++attempted_;
  if (!status.ok()) {
    ++failed_;
    Check(false, what + ": " + status.ToString());
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::Render() const {
  std::string out;
  for (const std::string& line : info_) out += "# " + line + "\n";
  out += "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " +
           FormatNumber(metrics_[i].second.first) + ", \"unit\": \"" +
           metrics_[i].second.second + "\"}";
  }
  out += "}}\n";
  return out;
}

bool SameCounts(const mochy::MotifCounts& a, const mochy::MotifCounts& b) {
  for (int t = 1; t <= mochy::kNumHMotifs; ++t) {
    if (a[t] != b[t]) return false;
  }
  return true;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CurrentRssMb() {
  FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int read = std::fscanf(file, "%llu %llu", &size, &resident);
  std::fclose(file);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return times;
  unsigned long long field[8] = {};
  const int read = std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                               &field[0], &field[1], &field[2], &field[3],
                               &field[4], &field[5], &field[6], &field[7]);
  std::fclose(file);
  if (read != 8) return times;
  for (const unsigned long long f : field) times.total += static_cast<double>(f);
  times.steal = static_cast<double>(field[7]);
  return times;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  mochy::SplitMix64Next(state);
  return mochy::SplitMix64Next(state);
}

std::vector<size_t> Degrees(const mochy::Hypergraph& graph,
                            size_t num_nodes) {
  std::vector<size_t> degrees(std::max(num_nodes, graph.num_nodes()), 0);
  for (mochy::NodeId v = 0; v < graph.num_nodes(); ++v) {
    degrees[v] = graph.degree(v);
  }
  return degrees;
}

std::vector<mochy::NodeId> DegreeClassPermutation(
    const std::vector<size_t>& degrees, uint64_t seed) {
  std::map<size_t, std::vector<mochy::NodeId>> classes;
  for (mochy::NodeId v = 0; v < degrees.size(); ++v) {
    classes[degrees[v]].push_back(v);
  }
  std::vector<mochy::NodeId> perm(degrees.size());
  mochy::Rng rng(seed);
  for (auto& [degree, ids] : classes) {
    std::vector<mochy::NodeId> targets = ids;
    rng.Shuffle(targets);
    for (size_t i = 0; i < ids.size(); ++i) perm[ids[i]] = targets[i];
  }
  return perm;
}

mochy::Result<mochy::Hypergraph> Relabel(
    const mochy::Hypergraph& graph, const std::vector<mochy::NodeId>& perm) {
  if (perm.size() < graph.num_nodes()) {
    return mochy::Status::InvalidArgument("permutation too short");
  }
  mochy::HypergraphBuilder builder;
  std::vector<mochy::NodeId> members;
  for (mochy::EdgeId e = 0; e < graph.num_edges(); ++e) {
    members.clear();
    for (const mochy::NodeId v : graph.edge(e)) members.push_back(perm[v]);
    builder.AddEdge(members);
  }
  mochy::BuildOptions options;
  options.num_nodes = perm.size();
  return std::move(builder).Build(options);
}

mochy::Result<mochy::Hypergraph> Relabel(const mochy::Hypergraph& graph,
                                         uint64_t seed) {
  return Relabel(graph, DegreeClassPermutation(
                            Degrees(graph, graph.num_nodes()), seed));
}

void CheckOk(const mochy::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

}  // namespace perfbench
