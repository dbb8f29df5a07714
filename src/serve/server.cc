#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "common/fault.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "hypergraph/fingerprint.h"
#include "hypergraph/binary_format.h"
#include "hypergraph/io.h"
#include "serve/protocol.h"

namespace mochy {

namespace {

bool ValidGraphName(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_' && c != '.') {
      return false;
    }
  }
  return true;
}

std::string ErrorResponse(const Status& status) {
  return std::string("error code=") + StatusCodeToString(status.code()) + " " +
         status.message() + "\n";
}

/// The per-kind query counters of ServerStats, in QueryKind order.
constexpr uint64_t ServerStats::*kKindQueries[] = {
    &ServerStats::count_queries, &ServerStats::profile_queries,
    &ServerStats::similarity_queries, &ServerStats::per_edge_queries,
    &ServerStats::predict_queries};

}  // namespace

std::string ServerStats::ToString() const {
  char line[512];
  std::string out;
  std::snprintf(line, sizeof(line),
                "server queries=%llu count=%llu profile=%llu "
                "similarity=%llu per_edge=%llu predict=%llu errors=%llu "
                "overloaded=%llu dropped=%llu "
                "active=%zu graphs=%zu\n",
                static_cast<unsigned long long>(queries),
                static_cast<unsigned long long>(count_queries),
                static_cast<unsigned long long>(profile_queries),
                static_cast<unsigned long long>(similarity_queries),
                static_cast<unsigned long long>(per_edge_queries),
                static_cast<unsigned long long>(predict_queries),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(overload_rejections),
                static_cast<unsigned long long>(dropped_connections),
                active_connections, graphs);
  out += line;
  std::snprintf(line, sizeof(line),
                "cache hits=%llu misses=%llu hit_rate=%.4f entries=%zu "
                "resident_bytes=%llu budget_bytes=%llu insertions=%llu "
                "evictions=%llu admission_rejects=%llu\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                cache.HitRate(), cache.entries,
                static_cast<unsigned long long>(cache.resident_bytes),
                static_cast<unsigned long long>(cache.budget_bytes),
                static_cast<unsigned long long>(cache.insertions),
                static_cast<unsigned long long>(cache.evictions),
                static_cast<unsigned long long>(cache.admission_rejects));
  out += line;
  return out;
}

MotifServer::MotifServer(ServeOptions options)
    : options_(std::move(options)), cache_(options_.cache_budget) {}

Status MotifServer::LoadGraph(const std::string& name, Hypergraph graph) {
  if (!ValidGraphName(name)) {
    return Status::InvalidArgument("invalid graph name '" + name +
                                   "' (want [A-Za-z0-9._-]{1,128})");
  }
  auto entry = std::make_unique<GraphEntry>();
  entry->graph = std::move(graph);
  entry->fingerprint = GraphFingerprint(entry->graph);
  EngineOptions build;
  build.num_threads = 0;  // the projection build runs on every core
  auto engine = MotifEngine::Create(entry->graph, build);
  if (!engine.ok()) return engine.status();
  entry->engine =
      std::make_unique<MotifEngine>(std::move(engine).value());

  std::lock_guard<std::mutex> lock(registry_mutex_);
  if (auto it = registry_.find(name); it != registry_.end()) {
    if (it->second->fingerprint == entry->fingerprint) {
      return Status::OK();  // identical content: idempotent
    }
    return Status::AlreadyExists("graph '" + name +
                                 "' is already loaded with different "
                                 "content (fingerprint mismatch)");
  }
  registry_.emplace(name, std::move(entry));
  return Status::OK();
}

Status MotifServer::LoadGraphFile(const std::string& name,
                                  const std::string& path) {
  // Accepts both on-disk formats; the magic bytes pick the binary
  // ".mhg" container or the text importer.
  auto graph = LoadHypergraphAuto(path);
  if (!graph.ok()) return graph.status();
  return LoadGraph(name, std::move(graph).value());
}

MotifServer::GraphEntry* MotifServer::FindGraph(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = registry_.find(name);
  return it == registry_.end() ? nullptr : it->second.get();
}

std::string MotifServer::HandleLoad(
    const std::vector<std::string_view>& tokens) {
  if (tokens.size() != 3) {
    return ErrorResponse(
        Status::InvalidArgument("usage: load <name> <path>"));
  }
  const std::string name(tokens[1]);
  if (Status s = LoadGraphFile(name, std::string(tokens[2])); !s.ok()) {
    return ErrorResponse(s);
  }
  GraphEntry* entry = FindGraph(name);
  char line[256];
  std::snprintf(line, sizeof(line),
                "ok kind=load name=%s fingerprint=%016llx nodes=%zu "
                "edges=%zu pins=%llu\n",
                name.c_str(),
                static_cast<unsigned long long>(entry->fingerprint),
                entry->graph.num_nodes(), entry->graph.num_edges(),
                static_cast<unsigned long long>(entry->graph.num_pins()));
  return line;
}

std::string MotifServer::HandleQuery(
    const QuerySpec& spec, const std::vector<std::string_view>& tokens) {
  if (tokens.size() < 1 + spec.operands) {
    return ErrorResponse(Status::InvalidArgument(std::string(spec.usage)));
  }
  Query query(spec);
  QueryOperand operands[2];
  for (size_t i = 0; i < spec.operands; ++i) {
    query.graphs[i] = tokens[1 + i];
    const GraphEntry* entry = FindGraph(std::string(tokens[1 + i]));
    if (entry == nullptr) {
      return ErrorResponse(Status::NotFound(
          "graph '" + std::string(tokens[1 + i]) + "' is not loaded"));
    }
    operands[i] = {&entry->graph, entry->engine.get(), entry->fingerprint};
  }
  const std::span<const std::string_view> options(
      tokens.data() + 1 + spec.operands, tokens.size() - 1 - spec.operands);
  if (Status s = ParseQueryOptions(options, &query); !s.ok()) {
    return ErrorResponse(s);
  }
  auto answer = AnswerQuery(query, operands, &cache_);
  if (!answer.ok()) return ErrorResponse(answer.status());

  const std::string& body = answer.value().body;
  const int cached = answer.value().cached ? 1 : 0;
  const auto verb = static_cast<int>(spec.verb.size());
  const auto first = static_cast<int>(query.graphs[0].size());
  const auto second = static_cast<int>(query.graphs[1].size());
  char header[512];  // names are at most 128 bytes (ValidGraphName)
  if (spec.operands == 1) {
    std::snprintf(header, sizeof(header),
                  "ok kind=%.*s graph=%.*s fingerprint=%016llx cached=%d\n",
                  verb, spec.verb.data(), first, query.graphs[0].data(),
                  static_cast<unsigned long long>(operands[0].fingerprint),
                  cached);
  } else {
    std::snprintf(header, sizeof(header),
                  "ok kind=%.*s graphs=%.*s,%.*s cached=%d\n", verb,
                  spec.verb.data(), first, query.graphs[0].data(), second,
                  query.graphs[1].data(), cached);
  }
  std::string response;
  response.reserve(std::strlen(header) + body.size());
  response += header;
  response += body;
  return response;
}

std::string MotifServer::HandleStats() {
  return "ok kind=stats\n" + stats().ToString();
}

std::string MotifServer::HandleRequest(const std::string& request) {
  // Requests are single-line; tolerate a trailing newline.
  const std::vector<std::string_view> lines = SplitLines(request);
  const std::vector<std::string_view> tokens =
      lines.empty() ? std::vector<std::string_view>{}
                    : SplitTokens(lines.front());
  const std::string_view command = tokens.empty() ? "" : tokens.front();
  const QuerySpec* spec = FindQuerySpec(command);
  std::string response;
  if (spec != nullptr) {
    response = HandleQuery(*spec, tokens);
  } else if (command == "load") {
    response = HandleLoad(tokens);
  } else if (command == "stats") {
    response = HandleStats();
  } else if (command == "shutdown") {
    RequestStop();
    response = "ok kind=shutdown\n";
  } else {
    response = ErrorResponse(Status::InvalidArgument(
        "unknown command '" + std::string(command) +
        "' (want load|count|profile|similarity|per-edge|predict|stats|"
        "shutdown)"));
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
    if (spec != nullptr) {
      ++(stats_.*kKindQueries[static_cast<size_t>(spec->kind)]);
    }
    if (response.rfind("error", 0) == 0) ++stats_.errors;
  }
  return response;
}

ServerStats MotifServer::stats() const {
  ServerStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  snapshot.cache = cache_.stats();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    snapshot.graphs = registry_.size();
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    snapshot.active_connections = active_connections_;
  }
  return snapshot;
}

void MotifServer::RequestStop() { stop_.store(true); }

void MotifServer::HandleConnection(int fd) {
  int idle_ms = 0;
  bool dropped = false;
  while (idle_ms < options_.idle_timeout_ms) {
    // Short poll slices so a stop request closes idle connections
    // promptly instead of after the full idle timeout.
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) break;
    if (ready == 0) {
      if (stop_.load()) break;
      idle_ms += 200;
      continue;
    }
    // A frame has started (or the peer closed): the per-frame deadline
    // takes over from the idle poll, so a stalled mid-frame peer — or
    // one not draining its reply — cannot pin this worker.
    auto frame = ReadFrame(fd, options_.io_timeout_ms);
    if (!frame.ok()) {
      dropped = true;
      break;
    }
    if (frame.value().eof) break;
    const std::string response = HandleRequest(frame.value().payload);
    if (!WriteFrame(fd, response, options_.io_timeout_ms).ok()) {
      dropped = true;
      break;
    }
    // Graceful drain: the request in flight when stop was requested is
    // answered, further requests on this connection are not.
    if (stop_.load()) break;
    idle_ms = 0;
  }
  ::close(fd);
  if (dropped) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.dropped_connections;
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    --active_connections_;
    // Notify while holding the mutex: the drain loop in Serve() cannot
    // observe active_connections_ == 0 (and let the caller destroy this
    // server, condition variable included) until this thread is fully
    // done with the condition variable.
    connections_done_.notify_all();
  }
}

Status MotifServer::Serve() {
  auto listen_fd = ListenOn(options_.socket_path, options_.port);
  if (!listen_fd.ok()) return listen_fd.status();
  const int fd = listen_fd.value();

  while (!stop_.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready == 0) continue;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) continue;
    const FaultAction fault = MOCHY_FAULT_POINT("server.accept");
    if (fault.kind == FaultAction::Kind::kError) {
      ::close(conn);
      continue;
    }
    bool overloaded = false;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      if (options_.max_connections != 0 &&
          active_connections_ >= options_.max_connections) {
        overloaded = true;
      } else {
        ++active_connections_;
      }
    }
    if (overloaded) {
      // Shed load with a typed response instead of queueing: the frame
      // is tiny (fits any socket buffer), so the short write deadline
      // only guards against a pathological peer stalling the acceptor.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.overload_rejections;
      }
      WriteFrame(conn,
                 "error code=Unavailable server overloaded "
                 "(max_connections=" +
                     std::to_string(options_.max_connections) +
                     "), retry with backoff\n",
                 100);
      ::close(conn);
      continue;
    }
    SharedThreadPool().Submit([this, conn] { HandleConnection(conn); });
  }

  ::close(fd);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  std::unique_lock<std::mutex> lock(connections_mutex_);
  connections_done_.wait(lock, [this] { return active_connections_ == 0; });
  return Status::OK();
}

}  // namespace mochy
