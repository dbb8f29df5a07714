/// \file
/// MotifServer: the resident serving layer over the counting stack.
///
/// The library answers one-shot runs; the server turns it into a
/// service: loaded graphs stay resident in a registry (each with its
/// content fingerprint and a ready MotifEngine), queries arrive as
/// protocol frames (serve/protocol.h) over a unix-domain or loopback
/// TCP socket, and results are answered from a **byte-budgeted LRU
/// result cache** before any counting happens. Repeat traffic costs one
/// cache lookup plus one frame write.
///
/// \par One query path
/// Every query kind is a row of the query table (serve/query.h), and
/// HandleRequest runs each the same way: tokenize, look up the kind,
/// resolve the graph operands in the registry, parse the options, build
/// the cache key (graph fingerprints plus canonical options), get or
/// compute the body, add the header line. The offline CLI answers the
/// same Query through the same AnswerQuery call, without the cache.
///
/// \par Request grammar (payload first line)
///   load <name> <path>                       register a graph from disk
///   count <name> [algorithm=A] [samples=N] [ratio=R] [seed=S]
///                [threads=N] [variance=0|1]  counts / estimates
///   profile <name> [random=K] [seed=S] [ratio=R] [epsilon=E]
///                  [null=chung-lu|perturb] [perturb=F] [threads=N]
///   similarity <name1> <name2> [profile keys...]   CP Pearson correlation
///   per-edge <name> [threads=N]              exact per-edge motif rows
///   predict <history> <candidates> [replace=R] [seed=S] [threads=N]
///                                            Table-4 prediction pipeline
///   stats                                    server + cache counters
///   shutdown                                 stop accepting, drain, exit
/// Responses start "ok ..." or "error code=<Code> <message>"; counts
/// travel as exact hex-float literals. The full grammar is documented in
/// docs/ARCHITECTURE.md ("The serving layer").
///
/// \par Concurrency
/// Each accepted connection is handled as one task on the shared
/// ThreadPool (common/thread_pool.h), so queries from different
/// connections run concurrently up to the pool width while counting
/// inside a handler runs inline on that worker (the pool's nested-region
/// rule). The registry is mutex-guarded and append-only — entries are
/// heap-pinned, so engines and graphs keep stable addresses for the
/// lifetime of the server; the result cache is internally synchronized.
///
/// \par Determinism
/// Cache keys canonicalize exactly the options that cannot change a body
/// (MotifEngine::Canonicalize for counts; the thread count everywhere),
/// so a cached answer is bit-identical to the cold answer, which is
/// bit-identical to the offline CLI's (asserted by tests/query_test.cc,
/// by the bench_report serving scenario and by CI's serve smoke job).
#ifndef MOCHY_SERVE_SERVER_H_
#define MOCHY_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/lru_cache.h"
#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "motif/engine.h"
#include "serve/query.h"

namespace mochy {

/// Server configuration; the CLI flags map onto this 1:1.
struct ServeOptions {
  /// Unix-domain socket path; when empty, `port` selects loopback TCP.
  std::string socket_path;
  /// Loopback TCP port, used only when socket_path is empty.
  int port = 0;
  /// Result-cache byte budget (the ParseMemoryBudget unit); 0 disables
  /// caching (every query recounts).
  uint64_t cache_budget = 64ull << 20;
  /// A connection idle longer than this is closed (frames are expected
  /// back-to-back; this bounds how long an abandoned connection can pin
  /// a pool worker).
  int idle_timeout_ms = 60'000;
  /// Per-frame I/O deadline (serve/protocol.h semantics): once a frame
  /// has started, a peer that stalls mid-frame — slow-loris request or
  /// undrained reply — is cut off after this long instead of pinning a
  /// pool worker forever. 0 disables the deadline.
  int io_timeout_ms = 10'000;
  /// Concurrent-connection cap. An accept beyond the cap is answered
  /// with one "error code=Unavailable ..." frame and closed — load is
  /// shed with a typed response the client can back off on, instead of
  /// queueing unbounded work on the pool. 0 means uncapped.
  size_t max_connections = 256;
};

/// Snapshot of server effectiveness counters, plus the cache's.
struct ServerStats {
  uint64_t queries = 0;             ///< requests dispatched (incl. failures)
  uint64_t count_queries = 0;       ///< `count` requests
  uint64_t profile_queries = 0;     ///< `profile` requests
  uint64_t similarity_queries = 0;  ///< `similarity` requests
  uint64_t per_edge_queries = 0;    ///< `per-edge` requests
  uint64_t predict_queries = 0;     ///< `predict` requests
  uint64_t errors = 0;              ///< requests answered with "error ..."
  uint64_t overload_rejections = 0; ///< accepts shed at max_connections
  uint64_t dropped_connections = 0; ///< connections closed on an I/O error
                                    ///  (timeout, truncation, injected fault)
  size_t active_connections = 0;    ///< currently open connections
  size_t graphs = 0;                ///< resident registry entries
  LruCacheStats cache;              ///< result-cache counters

  /// The two `server ...` / `cache ...` lines of a stats response.
  std::string ToString() const;
};

/// Resident serving front end; see the file comment for the contract.
class MotifServer {
 public:
  explicit MotifServer(ServeOptions options);

  MotifServer(const MotifServer&) = delete;
  MotifServer& operator=(const MotifServer&) = delete;

  /// Registers `graph` under `name` (names match [A-Za-z0-9._-]+),
  /// computing its fingerprint and building its materialized engine up
  /// front so first-query latency excludes the projection build.
  /// Loading the same content under the same name is idempotent;
  /// a different graph under a taken name is kAlreadyExists.
  Status LoadGraph(const std::string& name, Hypergraph graph);

  /// LoadGraph from a dataset file (hypergraph/io.h text format).
  Status LoadGraphFile(const std::string& name, const std::string& path);

  /// Parses and executes one request payload, returning the response
  /// payload ("ok ..." or "error ..."; never fails at the C++ level —
  /// malformed requests become error responses). This is the whole
  /// serving logic; the socket loop is a framing shim around it, and
  /// in-process callers (bench_report's serving scenario, tests) drive
  /// it directly.
  std::string HandleRequest(const std::string& request);

  /// One consistent snapshot of the counters.
  ServerStats stats() const;

  /// Binds per ServeOptions and serves until a `shutdown` request (or
  /// RequestStop()), then drains open connections and returns. Blocks;
  /// run it on the main/dedicated thread, never on a pool worker.
  Status Serve();

  /// Makes Serve() stop accepting and return once connections drain.
  /// Safe from any thread and from inside a handler.
  void RequestStop();

 private:
  struct GraphEntry {
    Hypergraph graph;
    uint64_t fingerprint = 0;
    // Built after `graph` is in place (the engine points into it); the
    // entry is heap-pinned, so the pointer stays valid for its lifetime.
    std::unique_ptr<MotifEngine> engine;
  };

  GraphEntry* FindGraph(const std::string& name);
  std::string HandleLoad(const std::vector<std::string_view>& tokens);
  /// Every query kind's one path: resolve the operands, parse the
  /// options, answer through the result cache, add the header line.
  std::string HandleQuery(const QuerySpec& spec,
                          const std::vector<std::string_view>& tokens);
  std::string HandleStats();
  void HandleConnection(int fd);

  const ServeOptions options_;
  BudgetedLruCache cache_;

  mutable std::mutex registry_mutex_;
  // Entries are never erased and unique_ptr pins them: engines hold
  // pointers into their entry's graph, and handlers use raw GraphEntry*
  // outside the registry lock.
  std::unordered_map<std::string, std::unique_ptr<GraphEntry>> registry_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::atomic<bool> stop_{false};
  mutable std::mutex connections_mutex_;
  std::condition_variable connections_done_;
  size_t active_connections_ = 0;
};

}  // namespace mochy

#endif  // MOCHY_SERVE_SERVER_H_
