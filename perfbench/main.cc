// perfbench: the repository benchmark's measuring program.
//
//   perfbench gen --workload W --seed N --seconds S --dir D
//       writes every input of workload W for seed N into D
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       loads those inputs, measures for S seconds, checks the outputs and
//       prints `# key=value` info lines and then one JSON result line
//
// perfbench/run.py builds this program and drives both steps; see
// perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/parse.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  mochy::Status (*generate)(uint64_t seed, double seconds,
                            const std::string& dir);
  void (*run)(const RunOptions& options, Report* report);
};

constexpr Workload kWorkloads[] = {
    {"count", GenerateCount, RunCount},
    {"batch", GenerateBatch, RunBatch},
    {"serve", GenerateServe, RunServe},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench gen|run --workload "
               "count|batch|serve --seed N --seconds S [--trace 0|1] "
               "--dir DIR\n",
               why);
  std::exit(2);
}

int Main(int argc, char** argv) {
  if (argc < 2) Usage("missing command");
  const std::string command = argv[1];
  if (command != "gen" && command != "run") Usage("unknown command");
  RunOptions options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      auto seed = mochy::ParseUint64(value);
      if (!seed.ok()) Usage("bad --seed");
      options.seed = seed.value();
    } else if (flag == "--seconds") {
      auto seconds = mochy::ParsePositiveDouble(value, "seconds");
      if (!seconds.ok()) Usage("bad --seconds");
      options.seconds = seconds.value();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--dir") {
      options.dir = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (options.dir.empty()) Usage("missing --dir");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown --workload");

  if (command == "gen") {
    CheckOk(workload->generate(options.seed, options.seconds, options.dir),
            "generating inputs");
    return 0;
  }

  Report report;
  report.Info("workload", options.workload);
  report.Info("seed", std::to_string(options.seed));
  report.Info("seconds", options.seconds);
  report.Info("threads", static_cast<double>(kThreads));
  // The dev host is a VM whose neighbours take CPU time (steal) in bursts
  // of minutes; the share taken during the run explains slow runs.
  const CpuTimes before = ReadCpuTimes();
  workload->run(options, &report);
  const CpuTimes after = ReadCpuTimes();
  if (after.total > before.total) {
    report.Info("host_steal_pct", 100.0 * (after.steal - before.steal) /
                                      (after.total - before.total));
  }
  if (options.trace) {
    const std::vector<Span> spans = RecordedSpans();
    const std::string path = options.dir + "/trace.jsonl";
    CheckOk(WriteSpans(spans, path), "writing spans");
    report.Info("spans", static_cast<double>(spans.size()));
    for (const auto& [layer, seconds] : SelfSecondsByLayer(spans)) {
      report.Metric(layer + ".self_s", seconds, "s");
    }
  }
  std::fputs(report.Render().c_str(), stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
