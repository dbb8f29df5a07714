// mochy_cli — command-line front end over the library, for working with
// datasets on disk. Two formats are accepted everywhere a dataset is
// loaded (sniffed by magic bytes): the Benson et al. text format (one
// hyperedge per line) and the binary ".mhg" container
// (hypergraph/binary_format.h; `convert` switches between them).
//
// Usage:
//   mochy_cli stats   <file>                      Table 2 statistics
//   mochy_cli count   <file> [--algorithm A] [--ratio R] [--samples N]
//                            [--seed S] [--threads N]
//                            [--projection materialized|lazy|auto]
//                            [--memory-budget BYTES[K|M|G]]
//                            [--spill-dir DIR]
//                                                 h-motif counts/estimates
//                                                 via the MotifEngine;
//                                                 A = exact|edge-sample|
//                                                     link-sample|weighted|
//                                                     auto;
//                                                 --projection lazy samples
//                                                 without materializing the
//                                                 projected graph, keeping
//                                                 memoized neighborhoods
//                                                 within --memory-budget
//                                                 (see docs/MEMORY.md)
//   mochy_cli sample  <file> [flags]              alias for
//                                                 count --algorithm link-sample
//   mochy_cli profile <file> [--random K] [--seed S] [--threads N]
//                            [--sample-ratio R] [--epsilon E]
//                            [--null chung-lu|perturb]
//                                                 batched CP pipeline:
//                                                 real + K null graphs are
//                                                 counted in one BatchRunner
//                                                 pass; prints Δt, CP, the
//                                                 Table 3 RC/RD columns and
//                                                 the batch statistics.
//                                                 R < 0 (default) counts
//                                                 exactly; otherwise
//                                                 MoCHy-A+ with R·|∧| wedge
//                                                 samples per graph
//   mochy_cli enumerate <file> [--limit N]        list instances
//   mochy_cli per-edge <file> [--threads N]       exact per-edge motif
//                                                 participation rows
//                                                 (engine CountPerEdge);
//                                                 one "row <e> <26 counts>"
//                                                 line per hyperedge,
//                                                 hex-float encoded —
//                                                 byte-identical to a served
//                                                 per-edge query body
//   mochy_cli predict <history> <candidates> [--replace F] [--seed S]
//                                            [--threads N]
//                                                 Table-4 hyperedge
//                                                 prediction: fabricate one
//                                                 fake per candidate, train
//                                                 the five reference
//                                                 classifiers on HM26/HM7/HC
//                                                 features; byte-identical
//                                                 to a served predict body
//   mochy_cli generate <domain> <file> [--scale X] [--seed S]
//                                                 write a synthetic dataset
//   mochy_cli stream  <trace> [--window W | --window sliding:W]
//                             [--mode cumulative|tumbling|sliding]
//                             [--horizon H] [--threads N] [--wal PATH]
//                                                 replay a temporal trace
//                                                 (lines: "time v1 v2 ...")
//                                                 through the incremental
//                                                 StreamingEngine; prints
//                                                 one row per window and
//                                                 the final exact counts.
//                                                 sliding evicts arrivals
//                                                 older than H (default W)
//                                                 via the decremental pass.
//                                                 --wal (cumulative only)
//                                                 makes the stream crash-safe:
//                                                 arrivals are logged and
//                                                 fsync'd before applying, a
//                                                 restart recovers the durable
//                                                 prefix bit-identically and
//                                                 resumes the trace from there
//                                                 (motif/streaming_wal.h;
//                                                 docs/OPERATIONS.md)
//   mochy_cli gen-trace <file> [--years N] [--scale X] [--seed S]
//                                                 write a temporal
//                                                 co-authorship trace
//   mochy_cli convert <in> <out>                  re-encode a dataset:
//                                                 out ending in .mhg writes
//                                                 the mmap-able binary
//                                                 container, anything else
//                                                 the text format
//                                                 (docs/STORAGE.md)
//   mochy_cli serve   [--socket PATH | --port N] [--cache-budget BYTES[K|M|G]]
//                     [--load NAME=FILE ...] [--max-connections N]
//                     [--io-timeout MS]
//                                                 run the resident MotifServer
//                                                 (src/serve/): loaded graphs
//                                                 stay in memory, queries are
//                                                 answered through a
//                                                 byte-budgeted result cache;
//                                                 blocks until a shutdown
//                                                 query arrives
//   mochy_cli query <action> [args] --socket PATH | --port N
//                   [--connect-timeout MS] [--io-timeout MS] [--retries N]
//                                                 one query against a running
//                                                 server (N > 1 retries
//                                                 transient failures with
//                                                 jittered exponential
//                                                 backoff); actions:
//                                                   count <name> [count flags]
//                                                   profile <name> [profile
//                                                                   flags]
//                                                   similarity <name1> <name2>
//                                                              [profile flags]
//                                                   per-edge <name>
//                                                            [--threads N]
//                                                   predict <hist> <cands>
//                                                           [--replace F]
//                                                           [--seed S]
//                                                           [--threads N]
//                                                   load <name> <file>
//                                                   stats
//                                                   shutdown
//                                                 output is formatted
//                                                 exactly like the offline
//                                                 commands (served bodies
//                                                 are bit-identical), plus
//                                                 a trailing "cached:
//                                                 yes|no" line
//
// count, sample, profile, per-edge and predict are the query kinds of
// serve/query.h: offline and under `query` they build the same Query from
// their flags, answer it through the same library call as the server and
// print it with the same printer. Each takes only its own kind's flags
// (count's --projection, --memory-budget and --spill-dir offline only,
// the client flags under `query` only) and refuses any other by name.
//
// Exit status: 0 on success, 1 on usage errors, 2 on I/O or data errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "gen/generators.h"
#include "gen/temporal.h"
#include "hypergraph/binary_format.h"
#include "hypergraph/io.h"
#include "hypergraph/stats.h"
#include "hypergraph/temporal_trace.h"
#include "motif/engine.h"
#include "motif/enumerate.h"
#include "motif/streaming.h"
#include "motif/streaming_wal.h"
#include "profile/significance.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query.h"
#include "serve/server.h"

namespace {

using namespace mochy;

/// The flags of the commands that are not query kinds, plus count's
/// engine-construction flags and the `query` client's. A query kind's
/// own options live in its Query (serve/query.h).
struct Flags {
  ProjectionPolicy projection = ProjectionPolicy::kAuto;
  uint64_t memory_budget = 0;  // bytes; 0 = unbounded
  uint64_t seed = 1;
  size_t threads = 0;  // 0 = DefaultThreadCount()
  size_t limit = 50;
  double scale = 0.25;
  uint64_t window = 1;
  uint64_t horizon = 0;  // 0: window width (see ReplayOptions::horizon)
  WindowMode mode = WindowMode::kCumulative;
  size_t years = 33;
  std::string wal;  // stream: WAL path; empty = in-memory only
  std::string spill_dir;  // count/sample: lazy disk tier; empty = off
  // serve/query
  std::string socket;                // unix-domain socket path
  int port = 0;                      // loopback TCP port (when no socket)
  uint64_t cache_budget = 64ull << 20;
  std::vector<std::pair<std::string, std::string>> loads;  // name -> file
  int io_timeout_ms = 10'000;        // per-frame deadline (0 = none)
  int connect_timeout_ms = 5'000;    // query: dial deadline (0 = none)
  size_t max_connections = 256;      // serve: overload cap (0 = uncapped)
  int retries = 1;                   // query: attempts for transient failures
};

/// Prints "<flag>: <error>" and returns false (ParseFlags's failure path).
bool BadFlag(const std::string& key, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", key.c_str(), status.ToString().c_str());
  return false;
}

/// Parses one `--key value` flag into `flags`; false (after printing
/// why) on an unknown flag or a value that fails validation (junk, wrong
/// sign, out of range: common/parse.h semantics, nothing is silently
/// coerced to 0).
bool ParseFlag(const std::string& key, const char* value, Flags* flags) {
  if (key == "--projection") {
    auto parsed = ParseProjectionPolicy(value);
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->projection = parsed.value();
  } else if (key == "--memory-budget") {
    auto parsed = ParseMemoryBudget(value);
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->memory_budget = parsed.value();
  } else if (key == "--seed") {
    auto parsed = ParseUint64(value);
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->seed = parsed.value();
  } else if (key == "--threads") {
    auto parsed = ParseUint64InRange(value, 0, 4096, "--threads");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->threads = static_cast<size_t>(parsed.value());
  } else if (key == "--limit") {
    auto parsed = ParseUint64(value);
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->limit = static_cast<size_t>(parsed.value());
  } else if (key == "--scale") {
    auto parsed = ParsePositiveDouble(value, "--scale");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->scale = parsed.value();
  } else if (key == "--window") {
    // "--window sliding:W" is shorthand for "--mode sliding --window W".
    std::string_view width = value;
    if (width.rfind("sliding:", 0) == 0) {
      flags->mode = WindowMode::kSliding;
      width.remove_prefix(std::strlen("sliding:"));
    }
    auto parsed = ParseUint64InRange(width, 1, UINT64_MAX, "--window");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->window = parsed.value();
  } else if (key == "--mode") {
    const std::string mode = value;
    if (mode == "cumulative") {
      flags->mode = WindowMode::kCumulative;
    } else if (mode == "tumbling") {
      flags->mode = WindowMode::kTumbling;
    } else if (mode == "sliding") {
      flags->mode = WindowMode::kSliding;
    } else {
      std::fprintf(
          stderr, "unknown mode '%s' (want cumulative|tumbling|sliding)\n",
          value);
      return false;
    }
  } else if (key == "--horizon") {
    auto parsed = ParseUint64InRange(value, 1, UINT64_MAX, "--horizon");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->horizon = parsed.value();
  } else if (key == "--years") {
    auto parsed = ParseUint64InRange(value, 1, 1000, "--years");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->years = static_cast<size_t>(parsed.value());
  } else if (key == "--wal") {
    flags->wal = value;
  } else if (key == "--spill-dir") {
    flags->spill_dir = value;
  } else if (key == "--io-timeout") {
    auto parsed = ParseUint64InRange(value, 0, 86'400'000, "--io-timeout");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->io_timeout_ms = static_cast<int>(parsed.value());
  } else if (key == "--connect-timeout") {
    auto parsed =
        ParseUint64InRange(value, 0, 86'400'000, "--connect-timeout");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->connect_timeout_ms = static_cast<int>(parsed.value());
  } else if (key == "--max-connections") {
    auto parsed =
        ParseUint64InRange(value, 0, 1'000'000, "--max-connections");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->max_connections = static_cast<size_t>(parsed.value());
  } else if (key == "--retries") {
    auto parsed = ParseUint64InRange(value, 1, 1000, "--retries");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->retries = static_cast<int>(parsed.value());
  } else if (key == "--socket") {
    flags->socket = value;
  } else if (key == "--port") {
    auto parsed = ParseUint64InRange(value, 1, 65535, "--port");
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->port = static_cast<int>(parsed.value());
  } else if (key == "--cache-budget") {
    auto parsed = ParseMemoryBudget(value);
    if (!parsed.ok()) return BadFlag(key, parsed.status());
    flags->cache_budget = parsed.value();
  } else if (key == "--load") {
    const std::string spec = value;
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      std::fprintf(stderr, "--load wants NAME=FILE, got '%s'\n", value);
      return false;
    }
    flags->loads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
  } else {
    std::fprintf(stderr, "unknown flag %s\n", key.c_str());
    return false;
  }
  return true;
}

/// count/sample's engine-construction flags: offline only, since a
/// served graph's engine is built when it is loaded.
constexpr std::string_view kEngineFlags[] = {"--projection",
                                             "--memory-budget", "--spill-dir"};
/// The `query` client's flags.
constexpr std::string_view kClientFlags[] = {
    "--socket", "--port", "--retries", "--connect-timeout", "--io-timeout"};

/// Parses trailing `--key value` flags from argv[first]. For a query
/// command (`command` non-empty), `query`, when given, takes its kind's
/// options through the query table, `extra` lists the only other flags
/// the command takes, and any other flag is refused by name.
bool ParseFlags(int argc, char** argv, int first, Flags* flags,
                std::string_view command = {}, Query* query = nullptr,
                std::span<const std::string_view> extra = {}) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    const QueryOption* option =
        query == nullptr ? nullptr : FindQueryFlag(*query->spec, key);
    if (option != nullptr) {
      const Status parsed = option->parse(argv[i + 1], key, query);
      if (!parsed.ok()) return BadFlag(key, parsed);
    } else if (!command.empty() &&
               std::find(extra.begin(), extra.end(), key) == extra.end()) {
      std::fprintf(stderr, "%.*s does not take %s\n",
                   static_cast<int>(command.size()), command.data(),
                   key.c_str());
      return false;
    } else if (!ParseFlag(key, argv[i + 1], flags)) {
      return false;
    }
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: mochy_cli <stats|count|sample|profile|enumerate|"
               "per-edge> <file> [flags]\n"
               "       mochy_cli predict <history-file> <candidates-file> "
               "[--replace F] [--seed S] [--threads N]\n"
               "       mochy_cli generate <coauth|contact|email|tags|threads>"
               " <file> [flags]\n"
               "       mochy_cli stream <trace-file> [flags]\n"
               "       mochy_cli gen-trace <file> [flags]\n"
               "       mochy_cli convert <in-file> <out-file> (out .mhg = "
               "binary container, else text)\n"
               "       mochy_cli serve [--socket PATH | --port N] "
               "[--cache-budget B] [--load NAME=FILE ...] "
               "[--max-connections N] [--io-timeout MS]\n"
               "       mochy_cli query "
               "<count|profile|similarity|per-edge|predict|load|stats|"
               "shutdown> [args] "
               "--socket PATH | --port N "
               "[--connect-timeout MS] [--io-timeout MS] [--retries N]\n"
               "flags: count/sample: --algorithm exact|edge-sample|"
               "link-sample|weighted|auto --ratio R --samples N --seed S "
               "--threads N (0 = all cores)\n"
               "       count/sample, offline only: --projection "
               "materialized|lazy|auto --memory-budget BYTES[K|M|G] "
               "(memory-bounded sampling) --spill-dir DIR (lazy disk tier, "
               "docs/STORAGE.md)\n"
               "       profile, similarity: --random K --seed S "
               "--sample-ratio R --epsilon E --null chung-lu|perturb "
               "--threads N\n"
               "       per-edge: --threads N; predict: --replace F --seed S "
               "--threads N; any other flag is refused\n"
               "       stream: --window W|sliding:W "
               "--mode cumulative|tumbling|sliding --horizon H "
               "--wal PATH (crash-safe, cumulative only); "
               "gen-trace: --years N --scale X\n");
  return 1;
}

// Every dataset-loading command accepts both on-disk formats: the magic
// bytes pick the binary ".mhg" container or the text importer.
Result<Hypergraph> Load(const char* path) { return LoadHypergraphAuto(path); }

/// `convert <in> <out>`: re-encodes a dataset between the text format and
/// the binary ".mhg" container. The input format is sniffed; the output
/// format follows the output extension (".mhg" = binary, else text).
int RunConvert(const char* in_path, const char* out_path) {
  auto graph = Load(in_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 2;
  }
  const std::string_view out = out_path;
  const bool binary = out.size() >= 4 && out.substr(out.size() - 4) == ".mhg";
  const Status saved = binary
                           ? SaveHypergraphBinary(graph.value(), out_path)
                           : SaveHypergraph(graph.value(), out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 2;
  }
  std::printf("converted %s -> %s (%s, %zu nodes, %zu edges, %llu pins)\n",
              in_path, out_path, binary ? "binary" : "text",
              graph.value().num_nodes(), graph.value().num_edges(),
              static_cast<unsigned long long>(graph.value().num_pins()));
  return 0;
}

int RunStats(const Hypergraph& graph, const Flags& flags) {
  const DatasetStats stats = ComputeStats(graph, flags.threads);
  std::printf("%-18s %9s %9s %6s %6s %12s %9s\n", "dataset", "|V|", "|E|",
              "max|e|", "avg|e|", "|wedges|", "maxdeg");
  std::printf("%s\n", FormatStatsRow("(input)", stats).c_str());
  return 0;
}

/// The Δ/CP/RC/RD table shared by the offline profile command and the
/// query-mode printer (which re-derives the rows from served counts with
/// the same pure functions, so both print bit-identical tables).
void PrintProfileTable(const MotifCounts& real, const MotifCounts& random_mean,
                       double epsilon) {
  const ProfileVector delta = ComputeSignificance(real, random_mean, epsilon);
  const ProfileVector cp = NormalizeProfile(delta);
  const ProfileVector rc = RelativeCounts(real, random_mean);
  const std::array<int, kNumHMotifs> rd = RankDifference(real, random_mean);
  std::printf("%7s %12s %12s %8s %8s %8s %4s\n", "h-motif", "real", "random",
              "delta", "CP", "RC", "RD");
  for (int t = 1; t <= kNumHMotifs; ++t) {
    std::printf("%7d %12.4g %12.4g %+8.3f %+8.3f %+8.3f %4d\n", t,
                real[t], random_mean[t], delta[t - 1], cp[t - 1], rc[t - 1],
                rd[t - 1]);
  }
}

/// Prints a query body in the offline commands' format. count and
/// profile bodies decode back into MotifCounts (hex floats round-trip
/// exactly), so their lines diff clean between offline, cold and cached
/// runs; per-edge and predict bodies print verbatim. Returns the exit
/// code.
int PrintQueryBody(QueryKind kind, std::string_view body) {
  const std::vector<std::string_view> lines = SplitLines(body);
  auto value = [&lines](std::string_view tag) -> std::string_view {
    for (const std::string_view line : lines) {
      if (line.size() > tag.size() && line.substr(0, tag.size()) == tag &&
          line[tag.size()] == ' ') {
        return line.substr(tag.size() + 1);
      }
    }
    return {};
  };
  switch (kind) {
    case QueryKind::kCount: {
      auto counts = DecodeCounts(value("counts"));
      if (!counts.ok()) {
        std::fprintf(stderr, "%s\n", counts.status().ToString().c_str());
        return 2;
      }
      std::printf("%.*s\n", static_cast<int>(value("stats").size()),
                  value("stats").data());
      std::printf("%s", counts.value().ToString().c_str());
      std::printf("total: %.0f (open %.0f, closed %.0f)\n",
                  counts.value().Total(), counts.value().TotalOpen(),
                  counts.value().TotalClosed());
      return 0;
    }
    case QueryKind::kProfile: {
      auto real = DecodeCounts(value("real"));
      auto random_mean = DecodeCounts(value("random"));
      auto epsilon = DecodeDouble(value("epsilon"));
      if (!real.ok() || !random_mean.ok() || !epsilon.ok()) {
        std::fprintf(stderr, "malformed profile body\n%.*s",
                     static_cast<int>(body.size()), body.data());
        return 2;
      }
      PrintProfileTable(real.value(), random_mean.value(), epsilon.value());
      std::printf("batch: %.*s\n", static_cast<int>(value("batch").size()),
                  value("batch").data());
      return 0;
    }
    case QueryKind::kSimilarity: {
      auto pearson = DecodeDouble(value("pearson"));
      if (!pearson.ok()) {
        std::fprintf(stderr, "malformed similarity body\n%.*s",
                     static_cast<int>(body.size()), body.data());
        return 2;
      }
      std::printf("pearson: %.6f\n", pearson.value());
      return 0;
    }
    case QueryKind::kPerEdge:
    case QueryKind::kPredict:
      std::fwrite(body.data(), 1, body.size(), stdout);
      return 0;
  }
  return 2;
}

/// Sends `request` to the server and prints the response: a query
/// kind's body like the offline output plus a "cached: yes|no" line,
/// anything else (`spec` null) as it comes. Returns the exit code.
int SendRequest(const std::string& request, const Flags& flags,
                const QuerySpec* spec) {
  if (flags.socket.empty() && flags.port == 0) {
    std::fprintf(stderr, "query: need --socket PATH or --port N\n");
    return 1;
  }
  ClientOptions client_options;
  client_options.connect_timeout_ms = flags.connect_timeout_ms;
  client_options.io_timeout_ms = flags.io_timeout_ms;
  client_options.backoff.max_attempts = flags.retries;
  MotifClient client(flags.socket, flags.port, client_options);
  if (Status s = client.Connect(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  // --retries > 1 rides out transient failures (timeouts, overload
  // shedding, dropped connections) with jittered exponential backoff;
  // queries are idempotent, so redialing and resending is safe.
  auto response = flags.retries > 1 ? client.RequestWithRetry(request)
                                    : client.Request(request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 2;
  }
  const std::string_view payload = response.value();
  if (payload.rfind("ok ", 0) != 0) {
    std::fprintf(stderr, "%s", response.value().c_str());
    return 2;
  }
  if (spec == nullptr) {
    std::printf("%s", response.value().c_str());
    return 0;
  }
  const size_t header_end = std::min(payload.find('\n'), payload.size());
  const std::string_view header = payload.substr(0, header_end);
  const int status = PrintQueryBody(
      spec->kind, payload.substr(std::min(header_end + 1, payload.size())));
  if (status != 0) return status;
  std::printf("cached: %s\n",
              header.find(" cached=1") != std::string_view::npos ? "yes"
                                                                  : "no");
  return 0;
}

/// A query kind's command, offline (`count <file> ...`, operands from
/// argv[2]) or served (`query count <name> ...`, from argv[3]). Both
/// build the same Query from the flags. Offline answers it in-process,
/// through the AnswerQuery call the server makes, over graphs loaded
/// from the operand files; served sends its EncodeQuery line.
int RunKind(const QuerySpec& spec, std::string_view command, bool served,
            int argc, char** argv) {
  const int first_operand = served ? 3 : 2;
  const int first_flag = first_operand + static_cast<int>(spec.operands);
  if (argc < first_flag) return Usage();
  Query query(spec);
  // The CLI's defaults where they differ from the wire's: counting runs
  // exact (`sample`: link-sample) at --ratio 0.05 on all cores, and
  // per-edge on all cores. `query` sends them explicitly.
  query.engine.algorithm =
      command == "sample" ? Algorithm::kLinkSample : Algorithm::kExact;
  query.engine.sampling_ratio = 0.05;
  query.engine.num_threads = 0;
  for (size_t i = 0; i < spec.operands; ++i) {
    query.graphs[i] = argv[first_operand + i];
  }
  Flags flags;
  std::span<const std::string_view> extra;
  if (served) {
    extra = kClientFlags;
  } else if (spec.kind == QueryKind::kCount) {
    extra = kEngineFlags;
  }
  if (!ParseFlags(argc, argv, first_flag, &flags, command, &query, extra)) {
    return Usage();
  }
  if (served) return SendRequest(EncodeQuery(query), flags, &spec);

  std::vector<Hypergraph> graphs;
  QueryOperand operands[2];
  for (size_t i = 0; i < spec.operands; ++i) {
    auto graph = Load(argv[first_operand + i]);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return 2;
    }
    graphs.push_back(std::move(graph).value());
  }
  for (size_t i = 0; i < graphs.size(); ++i) operands[i].graph = &graphs[i];
  std::optional<MotifEngine> engine;
  if (spec.needs_engine) {
    EngineOptions build = query.engine;
    build.projection = flags.projection;
    build.memory_budget = flags.memory_budget;
    build.spill_dir = flags.spill_dir;
    auto created = MotifEngine::Create(graphs[0], build);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 2;
    }
    engine.emplace(std::move(created).value());
    operands[0].engine = &*engine;
  }
  auto answer = AnswerQuery(query, operands);
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    return 2;
  }
  return PrintQueryBody(spec.kind, answer.value().body);
}

int RunEnumerate(const Hypergraph& graph, const Flags& flags) {
  auto projection = ProjectedGraph::Build(graph, flags.threads);
  if (!projection.ok()) {
    std::fprintf(stderr, "%s\n", projection.status().ToString().c_str());
    return 2;
  }
  size_t printed = 0;
  EnumerateInstances(graph, projection.value(),
                     [&](const MotifInstance& inst) {
                       if (printed >= flags.limit) return;
                       ++printed;
                       std::printf("{%u, %u, %u} -> h-motif %d\n", inst.i,
                                   inst.j, inst.k, inst.motif);
                     });
  std::printf("(printed %zu instances; --limit to change)\n", printed);
  return 0;
}

int RunGenerate(const char* domain_name, const char* path,
                const Flags& flags) {
  Domain domain;
  const std::string name = domain_name;
  if (name == "coauth") {
    domain = Domain::kCoauthorship;
  } else if (name == "contact") {
    domain = Domain::kContact;
  } else if (name == "email") {
    domain = Domain::kEmail;
  } else if (name == "tags") {
    domain = Domain::kTags;
  } else if (name == "threads") {
    domain = Domain::kThreads;
  } else {
    std::fprintf(stderr, "unknown domain '%s'\n", domain_name);
    return 1;
  }
  GeneratorConfig config = DefaultConfig(domain, flags.scale);
  config.seed = flags.seed;
  auto graph = GenerateDomainHypergraph(config);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 2;
  }
  if (Status s = SaveHypergraph(graph.value(), path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("wrote %zu edges over %zu nodes to %s\n",
              graph.value().num_edges(), graph.value().num_nodes(), path);
  return 0;
}

/// `stream --wal`: the crash-safe cumulative path. Arrivals go through
/// a PersistentStreamingEngine, so each is WAL-logged and fsync'd
/// before it is counted; a restart recovers the durable prefix
/// bit-identically and resumes the trace after it (the WAL's record
/// count says how many arrivals are already in). A final checkpoint
/// makes the next startup replay-free.
int RunStreamWithWal(const TemporalTrace& trace, const Flags& flags) {
  WalOptions options;
  options.path = flags.wal;
  options.streaming.num_threads = flags.threads;
  auto engine = PersistentStreamingEngine::Open(options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 2;
  }
  const WalRecoveryInfo& recovery = engine.value()->recovery();
  std::printf("wal: recovered %llu records "
              "(%llu checkpointed, %llu replayed, %llu torn bytes dropped)\n",
              static_cast<unsigned long long>(engine.value()->records()),
              static_cast<unsigned long long>(recovery.checkpoint_records),
              static_cast<unsigned long long>(recovery.replayed_records),
              static_cast<unsigned long long>(recovery.truncated_bytes));
  const uint64_t already_durable = engine.value()->records();
  if (already_durable > trace.size()) {
    std::fprintf(stderr,
                 "wal: log has %llu records but the trace only %zu arrivals; "
                 "is this the right trace for %s?\n",
                 static_cast<unsigned long long>(already_durable),
                 trace.size(), flags.wal.c_str());
    return 2;
  }
  uint64_t index = 0;
  for (const TimedEdge& arrival : trace.arrivals) {
    if (index++ < already_durable) continue;  // durable from a prior run
    auto added = engine.value()->AddEdge(
        std::span<const NodeId>(arrival.nodes.data(), arrival.nodes.size()));
    if (!added.ok()) {
      std::fprintf(stderr, "arrival %llu: %s\n",
                   static_cast<unsigned long long>(index - 1),
                   added.status().ToString().c_str());
      return 2;
    }
  }
  if (Status s = engine.value()->Checkpoint(); !s.ok()) {
    std::fprintf(stderr, "warning: final checkpoint failed: %s\n",
                 s.ToString().c_str());  // the WAL still has every record
  }
  std::printf("%s\n", engine.value()->engine().stats().ToString().c_str());
  std::printf("%s", engine.value()->counts().ToString().c_str());
  return 0;
}

int RunStream(const char* path, const Flags& flags) {
  if (flags.window == 0) {
    std::fprintf(stderr, "--window must be positive\n");
    return 2;
  }
  auto trace = LoadTemporalTrace(path);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 2;
  }
  if (!flags.wal.empty()) {
    // Durability is defined for the cumulative stream (the WAL's record
    // order IS the arrival order); windowed modes recompute per window
    // and stay in-memory.
    if (flags.mode != WindowMode::kCumulative) {
      std::fprintf(stderr, "--wal supports --mode cumulative only\n");
      return 2;
    }
    return RunStreamWithWal(trace.value(), flags);
  }
  ReplayOptions options;
  options.streaming.num_threads = flags.threads;
  options.window_width = flags.window;
  options.mode = flags.mode;
  options.horizon = flags.horizon;
  const bool sliding = flags.mode == WindowMode::kSliding;
  // Validate the option combination before printing the table header so
  // a rejected horizon produces only the error line.
  if (sliding && flags.horizon != 0 && flags.horizon < flags.window) {
    std::fprintf(stderr,
                 "--horizon must be at least the window width (%llu)\n",
                 static_cast<unsigned long long>(flags.window));
    return 2;
  }
  if (sliding) {
    std::printf("%10s %8s %8s %8s %12s %7s\n", "window", "arrivals", "evicted",
                "|E|", "instances", "open%");
  } else {
    std::printf("%10s %8s %8s %12s %7s\n", "window", "arrivals", "|E|",
                "instances", "open%");
  }
  auto result = ReplayTrace(
      trace.value(), options, [sliding](const WindowResult& window) {
        const double total = window.counts.Total();
        const double open_pct =
            total > 0 ? 100.0 * window.counts.TotalOpen() / total : 0.0;
        if (sliding) {
          std::printf("%10llu %8llu %8llu %8zu %12.0f %6.1f%%\n",
                      static_cast<unsigned long long>(window.start_time),
                      static_cast<unsigned long long>(window.arrivals),
                      static_cast<unsigned long long>(window.evictions),
                      window.num_edges, total, open_pct);
        } else {
          std::printf("%10llu %8llu %8zu %12.0f %6.1f%%\n",
                      static_cast<unsigned long long>(window.start_time),
                      static_cast<unsigned long long>(window.arrivals),
                      window.num_edges, total, open_pct);
        }
      });
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", result.value().stats.ToString().c_str());
  if (!result.value().windows.empty()) {
    std::printf("%s", result.value().windows.back().counts.ToString().c_str());
  }
  return 0;
}

int RunGenTrace(const char* path, const Flags& flags) {
  TemporalConfig config = ScaledTemporalConfig(flags.scale, flags.years);
  config.seed = flags.seed;
  auto trace = GenerateTemporalTrace(config);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 2;
  }
  if (Status s = SaveTemporalTrace(trace.value(), path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("wrote %zu arrivals over %zu years to %s\n",
              trace.value().size(), config.num_years, path);
  return 0;
}

int RunServe(const Flags& flags) {
  if (flags.socket.empty() && flags.port == 0) {
    std::fprintf(stderr, "serve: need --socket PATH or --port N\n");
    return 1;
  }
  ServeOptions options;
  options.socket_path = flags.socket;
  options.port = flags.port;
  options.cache_budget = flags.cache_budget;
  options.io_timeout_ms = flags.io_timeout_ms;
  options.max_connections = flags.max_connections;
  MotifServer server(options);
  for (const auto& [name, path] : flags.loads) {
    if (Status s = server.LoadGraphFile(name, path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("loaded %s from %s\n", name.c_str(), path.c_str());
  }
  if (!flags.socket.empty()) {
    std::printf("serving on unix socket %s\n", flags.socket.c_str());
  } else {
    std::printf("serving on 127.0.0.1:%d\n", flags.port);
  }
  // The CI smoke job backgrounds this process and waits for the line
  // above before querying.
  std::fflush(stdout);
  if (Status s = server.Serve(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  const ServerStats stats = server.stats();
  std::printf("server stopped\n%s", stats.ToString().c_str());
  return 0;
}

/// `query <action> [operands] [flags]`: a query kind runs served
/// through RunKind; load, stats and shutdown send their words as they
/// are.
int RunQuery(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string_view action = argv[2];
  if (const QuerySpec* spec = FindQuerySpec(action)) {
    return RunKind(*spec, action, /*served=*/true, argc, argv);
  }
  int first_flag;
  if (action == "load") {
    first_flag = 5;
  } else if (action == "stats" || action == "shutdown") {
    first_flag = 3;
  } else {
    std::fprintf(stderr, "unknown query action '%s'\n", argv[2]);
    return Usage();
  }
  if (argc < first_flag) return Usage();
  Flags flags;
  if (!ParseFlags(argc, argv, first_flag, &flags, action, nullptr,
                  kClientFlags)) {
    return Usage();
  }
  std::string request(action);
  for (int i = 3; i < first_flag; ++i) (request += ' ') += argv[i];
  return SendRequest(request, flags, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags;

  if (command == "serve") {
    if (!ParseFlags(argc, argv, 2, &flags)) return Usage();
    return RunServe(flags);
  }
  if (command == "query") return RunQuery(argc, argv);
  if (argc < 3) return Usage();
  if (command == "generate") {
    if (argc < 4 || !ParseFlags(argc, argv, 4, &flags)) return Usage();
    return RunGenerate(argv[2], argv[3], flags);
  }
  if (command == "gen-trace") {
    if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
    return RunGenTrace(argv[2], flags);
  }
  if (command == "stream") {
    if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
    return RunStream(argv[2], flags);
  }
  if (command == "convert") {
    if (argc != 4) return Usage();
    return RunConvert(argv[2], argv[3]);
  }
  // The query kinds (`sample` is count with another default algorithm)
  // run through the query table. similarity is served only: there is no
  // offline two-graph profile command.
  const QuerySpec* spec =
      FindQuerySpec(command == "sample" ? std::string("count") : command);
  if (spec != nullptr && spec->kind != QueryKind::kSimilarity) {
    return RunKind(*spec, command, /*served=*/false, argc, argv);
  }
  if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
  auto graph = Load(argv[2]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 2;
  }
  if (command == "stats") return RunStats(graph.value(), flags);
  if (command == "enumerate") return RunEnumerate(graph.value(), flags);
  return Usage();
}
