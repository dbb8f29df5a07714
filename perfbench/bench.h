// Shared plumbing of the benchmark: run options, the result report, the
// seeded input helpers and the small statistics every workload uses.
#ifndef MOCHY_PERFBENCH_BENCH_H_
#define MOCHY_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "motif/counts.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Every kernel call runs at this worker budget (the dev host has 4
/// cores, and the benchmark stays within them).
constexpr size_t kThreads = 4;

/// One invocation of `perfbench run`.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of the timed part
  bool trace = false;     ///< traced run: per-layer metrics instead
  std::string dir;        ///< generated inputs + scratch files
};

/// What one run prints: metrics by name with units, the attempted/failed
/// operation counts, correctness, and informational `# key=value` lines
/// (seed, input sizes, sample counts).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  /// Counts one operation; a failed one also fails the run's checks.
  void Attempt(const mochy::Status& status, const std::string& what);
  /// A correctness check; a false one marks the run incorrect.
  void Check(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  /// The info lines, then the one-line JSON result (the last line).
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::string> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Bit-identical counts for every h-motif.
bool SameCounts(const mochy::MotifCounts& a, const mochy::MotifCounts& b);

double SecondsSince(Clock::time_point start);

/// Median of `values` (mean of the middle two for even sizes); 0 if empty.
double Median(std::vector<double> values);
/// Nearest-rank quantile q in (0, 1]; 0 if empty.
double Quantile(std::vector<double> values, double q);

/// Process high-water resident set (getrusage), in MB.
double PeakRssMb();
/// Current resident set (/proc/self/statm), in MB.
double CurrentRssMb();

/// Host CPU time so far (/proc/stat, all CPUs): total and the share the
/// hypervisor gave to other guests (steal).
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
};
CpuTimes ReadCpuTimes();

/// Independent seed for input stream `stream` of workload seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Node degrees of `graph`, zero-padded to `num_nodes` entries.
std::vector<size_t> Degrees(const mochy::Hypergraph& graph, size_t num_nodes);

/// A permutation of node ids that shuffles, by `seed`, only among ids of
/// equal degree. Workloads draw their graphs through it: the run seed
/// changes ids and memory layout but not the amount of work, which
/// otherwise swings 3x across generator seeds (email-domain MoCHy-E
/// measured 0.47-1.31 s over eight seeds) and would drown the program's
/// own run-to-run spread. Keeping each id's degree also keeps the degree
/// vector, so degree-proportional draws with a fixed seed (Chung-Lu
/// nulls) pick the same ids whatever the run seed.
std::vector<mochy::NodeId> DegreeClassPermutation(
    const std::vector<size_t>& degrees, uint64_t seed);

/// `graph` with node v renamed perm[v]; edge order is kept, so samplers
/// with a fixed seed draw the same edges and wedges.
mochy::Result<mochy::Hypergraph> Relabel(const mochy::Hypergraph& graph,
                                         const std::vector<mochy::NodeId>& perm);

/// Relabel through the degree-class permutation of the graph's own degrees.
mochy::Result<mochy::Hypergraph> Relabel(const mochy::Hypergraph& graph,
                                         uint64_t seed);

/// Fails the process with `status` unless it is OK (input generation and
/// set-up errors are fatal: the run cannot measure anything).
void CheckOk(const mochy::Status& status, const std::string& what);

}  // namespace perfbench

#endif  // MOCHY_PERFBENCH_BENCH_H_
