// The three workloads. Each has a generator, run in its own process before
// the measured one, that writes every input into the run directory, and a
// runner that loads only those files, measures, checks its outputs and
// reports its own metrics.
#ifndef MOCHY_PERFBENCH_WORKLOADS_H_
#define MOCHY_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench.h"
#include "common/status.h"

namespace perfbench {

mochy::Status GenerateCount(uint64_t seed, double seconds,
                            const std::string& dir);
void RunCount(const RunOptions& options, Report* report);

mochy::Status GenerateBatch(uint64_t seed, double seconds,
                            const std::string& dir);
void RunBatch(const RunOptions& options, Report* report);

mochy::Status GenerateServe(uint64_t seed, double seconds,
                            const std::string& dir);
void RunServe(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // MOCHY_PERFBENCH_WORKLOADS_H_
