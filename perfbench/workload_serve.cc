// serve: an in-process MotifServer on a unix socket under a seeded query
// mix, closed-loop; the traced run first sends it open-loop at one fixed
// offered rate.
//
// The hit path (frame in, parse, cache lookup, render, frame out) serves
// 95% of the requests: keys the warm-up cached, each equally likely unless
// it is hot, which it is with probability 1% (SNIPPETS §3). The other 5%
// are never-seen link-sample seeds on g1, so p99 falls inside that
// cold-compute mode rather than on its edge; a fifth of those are sent on
// both connections at once. Both shares are exact: every 20th request is
// cold and every 5th cold one is paired, so no run draws more or fewer
// cold requests. The two graphs are loaded through `load`, so text
// parsing is measured here and .mhg loading in `count`. One pass (pass_s)
// is a block of closed-loop requests; the open-loop latencies are
// per-layer metrics of the traced run.
//
// No recorded query traffic exists for this server, so the mix is an
// assumption, kept to the fewest parameters: the key set is that of
// bench_report's serve/mixed scenario (MoCHy-E, A at seed 1, A+ at seeds 1
// and 7, a profile with 2 random graphs) on each graph, plus each graph's
// per-edge rows and one similarity, and the shares of the query kinds
// follow from it (8 of the 13 keys are counts).
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "gen/generators.h"
#include "hypergraph/io.h"
#include "motif/engine.h"
#include "profile/significance.h"
#include "profile/similarity.h"
#include "serve/protocol.h"
#include "serve/render.h"
#include "serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Two co-authorship graphs, so similarity queries compare same-domain
// profiles.
constexpr double kGraphScale[2] = {0.3, 0.25};
constexpr uint64_t kGraphSeed = 21;
const char* const kGraphNames[2] = {"g1", "g2"};

// The query mix: every kColdEvery-th request is a never-seen link-sample
// seed drawing kColdSamples hyperwedges on g1, and every kPairEvery-th of
// those is sent twice at once; the cached keys of BuildKeySet share the
// rest.
//
// The offered rate is low enough that both connections are rarely busy at
// once: at 400/s, requests queued behind cold computes put p99 on the edge
// between the cold mode and the queued-cold mode, and it flipped between
// 4 and 11 ms from run to run.
constexpr double kOfferedRate = 150.0;  // open-loop requests per second
// The untraced run spends all of --seconds in the closed loop, which gives
// pass_s; the traced run splits it between the loops.
constexpr double kOpenShare = 0.8;  // traced run: of --seconds
constexpr uint64_t kColdEvery = 20;  // a 5% cold share
constexpr uint64_t kPairEvery = 5;   // a fifth of the cold requests
// About 25 ms on one worker, more than the "few ms" a cold query would
// naturally cost: the dev host is a VM that loses up to 13% of its CPU
// time to its neighbours in 10-15 ms stalls, which hit 1% of even cached
// requests. With 5-7 ms colds the p99 measured those stalls and swung
// 4-17 ms between runs; above the stalls it stays in the cold mode.
constexpr uint64_t kColdSamples = 14'000;
constexpr uint64_t kCachedSamples = 1600;
constexpr uint64_t kEdgeSamples = 20;
const char* const kProfileOptions = " random=2 seed=1";
constexpr double kHotProbability = 0.01;
// SNIPPETS §3 gives hot keys "a disproportionately higher" share but no
// factor; ten times a plain key's is the assumption.
constexpr double kHotWeight = 10.0;
constexpr size_t kClosedPerSecond = 6'000;  // closed-loop list length
constexpr double kQpsSlice = 0.5;  // seconds
// One pass (pass_s) is this many consecutive closed-loop completions.
constexpr size_t kPassRequests = 100;
constexpr int kSetupRepeats = 51;
constexpr int kConnections = 2;

const char* const kScheduleFile = "/schedule.txt";

/// One scheduled request.
struct Entry {
  uint64_t due_us = 0;  // open loop: offset from the phase start
  bool cold = false;    // a never-seen key
  std::string request;
};

/// The request lists of the three phases: warm-up (every cached key
/// once), open loop and closed loop.
struct Schedule {
  std::vector<Entry> warm, open, closed;
};

std::string GraphPath(const std::string& dir, int g) {
  return dir + "/" + kGraphNames[g] + ".txt";
}

/// The cached keys with their cumulative draw weights: 1, or kHotWeight
/// for a hot key.
struct KeySet {
  std::vector<std::string> keys;
  std::vector<double> weights;  // cumulative
};

KeySet BuildKeySet(mochy::Rng& rng) {
  KeySet set;
  for (int g = 0; g < 2; ++g) {
    const std::string name = kGraphNames[g];
    set.keys.push_back("count " + name + " algorithm=exact");
    set.keys.push_back("count " + name + " algorithm=edge-sample samples=" +
                       std::to_string(kEdgeSamples) + " seed=1");
    for (const char* seed : {"1", "7"}) {
      set.keys.push_back("count " + name + " algorithm=link-sample samples=" +
                         std::to_string(kCachedSamples) + " seed=" + seed);
    }
    set.keys.push_back("profile " + name + kProfileOptions);
    set.keys.push_back("per-edge " + name);
  }
  set.keys.push_back(std::string("similarity g1 g2") + kProfileOptions);
  double total = 0.0;
  for (size_t i = 0; i < set.keys.size(); ++i) {
    total += rng.Bernoulli(kHotProbability) ? kHotWeight : 1.0;
    set.weights.push_back(total);
  }
  return set;
}

std::string DrawCached(const KeySet& set, mochy::Rng& rng) {
  const double u = rng.UniformDouble() * set.weights.back();
  const size_t i = static_cast<size_t>(
      std::upper_bound(set.weights.begin(), set.weights.end(), u) -
      set.weights.begin());
  return set.keys[std::min(i, set.keys.size() - 1)];
}

// Always on g1: colds on both graphs made the cold mode bimodal, and p99
// moved between its two humps.
std::string ColdRequest(uint64_t seed, uint64_t i) {
  return "count " + std::string(kGraphNames[0]) +
         " algorithm=link-sample samples=" + std::to_string(kColdSamples) +
         " seed=" + std::to_string(seed + i);
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The result-bearing part of a response: the body without its header
/// line and without the `stats`/`batch` lines, which carry wall times.
std::string ResultPart(std::string_view response) {
  std::string out;
  bool header = true;
  for (const std::string_view line : mochy::SplitLines(response)) {
    if (header) {
      header = false;
      continue;
    }
    if (line.rfind("stats ", 0) == 0 || line.rfind("batch ", 0) == 0) continue;
    out.append(line);
    out.push_back('\n');
  }
  return out;
}

/// What the client saw for one request.
struct Outcome {
  bool sent = false;
  bool ok = false;       // "ok ..." response
  bool refused = false;  // transport failure or Unavailable
  bool cached = false;   // served from the result cache
  double latency_ms = 0.0;   // open loop: from the due time
  double wait_ms = 0.0;      // open loop: due -> send, sender was busy
  double late_ms = 0.0;      // open loop: due -> send, sender overslept
  bool slept = false;
  double done_s = 0.0;       // closed loop: completion, from the phase start
  uint64_t bytes = 0;
  uint64_t hash = 0;
};

void Record(const mochy::Result<std::string>& response, Outcome* out) {
  out->sent = true;
  if (!response.ok()) {
    out->refused = true;
    return;
  }
  const std::string& body = response.value();
  out->bytes = body.size();
  out->ok = body.rfind("ok ", 0) == 0;
  out->refused = body.rfind("error code=Unavailable", 0) == 0;
  const std::string_view header =
      std::string_view(body).substr(0, body.find('\n'));
  out->cached = header.find(" cached=1") != std::string_view::npos;
  out->hash = Fnv1a(ResultPart(body));
}

/// A running server, its serving thread and the client connections.
struct Server {
  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  /// Closes the connections, stops the server and joins its thread.
  ~Server() {
    for (const int fd : connections) ::close(fd);
    if (server) server->RequestStop();
    if (thread.joinable()) thread.join();
  }

  std::unique_ptr<mochy::MotifServer> server;
  std::vector<int> connections;  // kConnections client sockets
  std::thread thread;  // declared last: it uses `server`
};

constexpr std::chrono::microseconds kReplySpin{1000};

/// One request over a client connection: a frame out, the reply frame in
/// (the wire exchange of MotifClient::Request). The wait for the reply
/// spins up to kReplySpin before it blocks: a cached reply takes about
/// 0.1 ms, and waking the sleeping client to deliver it took 50-150 us on
/// the VM dev host, noise of the client rather than of the server.
mochy::Result<std::string> Exchange(int fd, const std::string& request) {
  MOCHY_RETURN_IF_ERROR(mochy::WriteFrame(fd, request));
  const Clock::time_point give_up = Clock::now() + kReplySpin;
  char byte = 0;
  while (::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) < 0 &&
         (errno == EAGAIN || errno == EWOULDBLOCK) && Clock::now() < give_up) {
  }
  MOCHY_ASSIGN_OR_RETURN(mochy::FrameRead frame, mochy::ReadFrame(fd));
  if (frame.eof) return mochy::Status::IOError("server closed the connection");
  return std::move(frame.payload);
}

/// Starts a server on `dir`/serve.sock, connects the clients and loads
/// both graphs; *load_s is the time of the two `load` requests.
std::unique_ptr<Server> StartServer(const std::string& dir, double* load_s,
                                    Report* report) {
  auto s = std::make_unique<Server>();
  mochy::ServeOptions options;
  options.socket_path = dir + "/serve.sock";
  {
    ScopedSpan span("serve.start");
    s->server = std::make_unique<mochy::MotifServer>(options);
    mochy::MotifServer* server = s->server.get();
    s->thread = std::thread([server] {
      CheckOk(server->Serve(), "serving");
    });
    for (int c = 0; c < kConnections; ++c) {
      // Serve() binds asynchronously: retry until the socket is up.
      auto fd = mochy::ConnectTo(options.socket_path, 0, 5'000);
      for (int attempt = 0; !fd.ok() && attempt < 100'000; ++attempt) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        fd = mochy::ConnectTo(options.socket_path, 0, 5'000);
      }
      CheckOk(fd.status(), "connecting to the server");
      s->connections.push_back(fd.value());
    }
  }
  ScopedSpan loads("serve.load");
  for (int g = 0; g < 2; ++g) {
    auto response = Exchange(s->connections[0],
                             std::string("load ") + kGraphNames[g] + " " +
                                 GraphPath(dir, g));
    const bool ok = response.ok() && response.value().rfind("ok ", 0) == 0;
    report->Attempt(ok ? mochy::Status::OK()
                       : mochy::Status::Internal("load failed"),
                    "load request");
    if (!ok) CheckOk(mochy::Status::Internal("load failed"), "loading graphs");
  }
  *load_s = loads.End();
  return s;
}

constexpr std::chrono::microseconds kSpin{500};

/// Open loop: each sender claims the next due request, sleeps to its
/// absolute deadline when early, and is timed from the due time, so a
/// stall counts against every request queued behind it.
std::vector<Outcome> OpenLoop(const Server& s,
                              const std::vector<Entry>& entries) {
  std::vector<Outcome> outcomes(entries.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) {
    senders.emplace_back([&, c] {
      const int fd = s.connections[c];
      for (size_t i = next++; i < entries.size(); i = next++) {
        const Clock::time_point due =
            start + std::chrono::microseconds(entries[i].due_us);
        Outcome& out = outcomes[i];
        Clock::time_point now = Clock::now();
        if (now < due) {
          // Sleep to just short of the deadline, then spin: a plain
          // sleep wakes 50-300 us late, up to the time of a cache hit.
          std::this_thread::sleep_until(due - kSpin);
          while (Clock::now() < due) {
          }
          now = Clock::now();
          out.slept = true;
          out.late_ms = std::chrono::duration<double, std::milli>(now - due).count();
        } else {
          out.wait_ms = std::chrono::duration<double, std::milli>(now - due).count();
        }
        mochy::Result<std::string> response("");
        {
          ScopedSpan span("serve.request", i + 1);
          response = Exchange(fd, entries[i].request);
        }
        out.latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - due).count();
        Record(response, &out);
      }
    });
  }
  for (std::thread& t : senders) t.join();
  return outcomes;
}

/// Closed loop: kConnections callers that each wait for their reply, like
/// CLI `query` users, working through `entries` from `begin` for
/// `seconds`. Returns the completed requests per second as the median
/// over kQpsSlice-long slices, so a burst of interference from elsewhere
/// on the host moves one slice rather than the result; *end is one past
/// the last request sent.
double ClosedLoop(const Server& s, const std::vector<Entry>& entries,
                  size_t begin, double seconds, std::vector<Outcome>* outcomes,
                  size_t* end) {
  std::atomic<size_t> next{begin};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> callers;
  for (int c = 0; c < kConnections; ++c) {
    callers.emplace_back([&, c] {
      const int fd = s.connections[c];
      while (SecondsSince(start) < seconds) {
        const size_t i = next++;
        if (i >= entries.size()) break;
        Outcome& out = (*outcomes)[i];
        {
          ScopedSpan span("serve.request", i + 1);
          Record(Exchange(fd, entries[i].request), &out);
        }
        out.done_s = SecondsSince(start);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  *end = std::min(next.load(), entries.size());
  // Only slices the callers filled: if the list ran out early, the slices
  // after it would read as zero throughput.
  double last_done = 0.0;
  for (size_t i = begin; i < *end; ++i) {
    last_done = std::max(last_done, (*outcomes)[i].done_s);
  }
  const size_t slices = std::max<size_t>(
      1, static_cast<size_t>(std::min(seconds, last_done) / kQpsSlice));
  std::vector<double> per_slice(slices, 0.0);
  for (size_t i = begin; i < *end; ++i) {
    const Outcome& out = (*outcomes)[i];
    const size_t slice = static_cast<size_t>(out.done_s / kQpsSlice);
    if (out.ok && slice < slices) per_slice[slice] += 1.0 / kQpsSlice;
  }
  return Median(per_slice);
}

/// Median time the closed loop took for kPassRequests completions, over
/// consecutive blocks of the run (outcomes [begin, end)).
double PassSeconds(const std::vector<Outcome>& outcomes, size_t begin,
                   size_t end) {
  std::vector<double> done;
  for (size_t i = begin; i < end; ++i) {
    if (outcomes[i].ok) done.push_back(outcomes[i].done_s);
  }
  std::sort(done.begin(), done.end());
  std::vector<double> blocks;
  double block_start = 0.0;
  for (size_t i = kPassRequests - 1; i < done.size(); i += kPassRequests) {
    blocks.push_back(done[i] - block_start);
    block_start = done[i];
  }
  return Median(blocks);
}

/// Offline renders of every distinct request, hashed like the served
/// result parts: counts through MotifEngine, profiles through
/// ComputeCharacteristicProfile, per-edge rows through RenderPerEdgeBody.
class OfflineRenderer {
 public:
  OfflineRenderer(const std::string& dir, Report* report) : report_(report) {
    for (int g = 0; g < 2; ++g) {
      auto graph = mochy::LoadHypergraph(GraphPath(dir, g));
      CheckOk(graph.status(), "loading graphs offline");
      graphs_[g] = std::make_unique<mochy::Hypergraph>(std::move(graph).value());
      auto engine = mochy::MotifEngine::Create(*graphs_[g], kThreads);
      CheckOk(engine.status(), "building offline engines");
      engines_[g] = std::make_unique<mochy::MotifEngine>(std::move(engine).value());
    }
  }

  uint64_t Hash(const std::string& request) {
    auto it = hashes_.find(request);
    if (it == hashes_.end()) {
      it = hashes_.emplace(request, Fnv1a(Render(request))).first;
    }
    return it->second;
  }

 private:
  static int GraphIndex(std::string_view name) { return name == "g1" ? 0 : 1; }

  std::string Render(const std::string& request) {
    const std::vector<std::string_view> tokens = mochy::SplitTokens(request);
    std::map<std::string_view, std::string_view> options;
    for (size_t i = 1; i < tokens.size(); ++i) {
      const size_t eq = tokens[i].find('=');
      if (eq != std::string_view::npos) {
        options[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
      }
    }
    const int g = GraphIndex(tokens[1]);
    if (tokens[0] == "count") {
      mochy::EngineOptions engine_options;
      engine_options.algorithm =
          mochy::ParseAlgorithm(options["algorithm"]).value_or(
              mochy::Algorithm::kExact);
      engine_options.num_samples = Number(options["samples"]);
      engine_options.seed = Number(options["seed"]);
      engine_options.num_threads = kThreads;
      auto result = engines_[g]->Count(engine_options);
      report_->Attempt(result.status(), "offline count");
      if (!result.ok()) return {};
      return "counts " + mochy::EncodeCounts(result.value().counts) + "\n";
    }
    if (tokens[0] == "per-edge") {
      mochy::EngineOptions engine_options;
      engine_options.num_threads = kThreads;
      auto result = engines_[g]->CountPerEdge(engine_options);
      report_->Attempt(result.status(), "offline per-edge");
      if (!result.ok()) return {};
      return mochy::RenderPerEdgeBody(result.value().rows);
    }
    const std::string profile_options =
        " random=" + std::string(options["random"]) +
        " seed=" + std::string(options["seed"]);
    if (tokens[0] == "profile") {
      const mochy::CharacteristicProfile& p = Profile(g, profile_options);
      return "real " + mochy::EncodeCounts(p.real_counts) + "\n" + "random " +
             mochy::EncodeCounts(p.random_mean) + "\n" + "epsilon " +
             mochy::EncodeDouble(1.0) + "\n";
    }
    // similarity g1 g2: the Pearson correlation of the two profiles.
    std::vector<double> cps[2];
    for (int h = 0; h < 2; ++h) {
      const mochy::CharacteristicProfile& p =
          Profile(GraphIndex(tokens[1 + h]), profile_options);
      const mochy::ProfileVector cp = mochy::NormalizeProfile(
          mochy::ComputeSignificance(p.real_counts, p.random_mean, 1.0));
      cps[h].assign(cp.begin(), cp.end());
    }
    return "pearson " +
           mochy::EncodeDouble(mochy::PearsonCorrelation(cps[0], cps[1])) +
           "\n";
  }

  const mochy::CharacteristicProfile& Profile(int g,
                                              const std::string& options) {
    const std::string key = std::to_string(g) + options;
    auto it = profiles_.find(key);
    if (it != profiles_.end()) return it->second;
    const std::vector<std::string_view> tokens = mochy::SplitTokens(options);
    mochy::CharacteristicProfileOptions profile_options;
    profile_options.num_random_graphs =
        static_cast<int>(Number(tokens[0].substr(7)));  // random=
    profile_options.seed = Number(tokens[1].substr(5));  // seed=
    profile_options.num_threads = kThreads;
    auto profile = mochy::ComputeCharacteristicProfile(*graphs_[g],
                                                       profile_options);
    report_->Attempt(profile.status(), "offline profile");
    return profiles_
        .emplace(key, profile.ok() ? std::move(profile).value()
                                   : mochy::CharacteristicProfile())
        .first->second;
  }

  static uint64_t Number(std::string_view text) {
    return std::strtoull(std::string(text).c_str(), nullptr, 10);
  }

  Report* report_;
  std::unique_ptr<mochy::Hypergraph> graphs_[2];
  std::unique_ptr<mochy::MotifEngine> engines_[2];
  std::unordered_map<std::string, uint64_t> hashes_;
  std::map<std::string, mochy::CharacteristicProfile> profiles_;
};

Schedule LoadSchedule(const std::string& path) {
  auto text = mochy::ReadTextFile(path);
  CheckOk(text.status(), "reading the schedule");
  Schedule schedule;
  for (const std::string_view line : mochy::SplitLines(text.value())) {
    // "<warm|open|closed> <due_us> <hit|cold> <request...>"
    const size_t a = line.find(' ');
    const size_t b = line.find(' ', a + 1);
    const size_t c = line.find(' ', b + 1);
    if (c == std::string_view::npos) continue;
    Entry entry;
    entry.due_us = std::strtoull(
        std::string(line.substr(a + 1, b - a - 1)).c_str(), nullptr, 10);
    entry.cold = line.substr(b + 1, c - b - 1) == "cold";
    entry.request = std::string(line.substr(c + 1));
    const std::string_view phase = line.substr(0, a);
    (phase == "warm" ? schedule.warm
                     : phase == "open" ? schedule.open : schedule.closed)
        .push_back(std::move(entry));
  }
  return schedule;
}

}  // namespace

mochy::Status GenerateServe(uint64_t seed, double seconds,
                            const std::string& dir) {
  for (int g = 0; g < 2; ++g) {
    mochy::GeneratorConfig config =
        mochy::DefaultConfig(mochy::Domain::kCoauthorship, kGraphScale[g]);
    config.seed = kGraphSeed + g;
    MOCHY_ASSIGN_OR_RETURN(mochy::Hypergraph base,
                           mochy::GenerateDomainHypergraph(config));
    MOCHY_ASSIGN_OR_RETURN(mochy::Hypergraph graph,
                           Relabel(base, DeriveSeed(seed, 1 + g)));
    MOCHY_RETURN_IF_ERROR(mochy::SaveHypergraph(graph, GraphPath(dir, g)));
  }

  mochy::Rng rng(DeriveSeed(seed, 3));
  const KeySet keys = BuildKeySet(rng);
  const uint64_t cold_base = DeriveSeed(seed, 4) % (1ull << 40);
  uint64_t drawn = 0, cold = 0;
  std::string text;
  // The warm-up list: every cached key once.
  for (const std::string& key : keys.keys) text += "warm 0 hit " + key + "\n";
  auto emit = [&](const char* phase, uint64_t due_us) {
    if (++drawn % kColdEvery != 0) {
      text += std::string(phase) + " " + std::to_string(due_us) + " hit " +
              DrawCached(keys, rng) + "\n";
      return;
    }
    const std::string request = ColdRequest(cold_base, cold++);
    const int copies = cold % kPairEvery == 0 ? 2 : 1;
    for (int i = 0; i < copies; ++i) {
      text += std::string(phase) + " " + std::to_string(due_us) + " cold " +
              request + "\n";
    }
  };
  // Open loop: Poisson arrivals at the offered rate.
  const double open_seconds = seconds * kOpenShare;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) / kOfferedRate;
    if (t >= open_seconds) break;
    emit("open", static_cast<uint64_t>(t * 1e6));
  }
  const size_t closed = static_cast<size_t>(
      std::ceil(seconds * kClosedPerSecond));
  for (size_t i = 0; i < closed; ++i) emit("closed", 0);
  return mochy::WriteTextFile(dir + kScheduleFile, text);
}

void RunServe(const RunOptions& run, Report* report) {
  SetTracing(run.trace);
  // 1 ns timer slack (default 50 us) so the generator's sleeps end on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const Schedule schedule = LoadSchedule(run.dir + kScheduleFile);
  report->Info("open_requests", static_cast<double>(schedule.open.size()));
  report->Info("offered_rate", kOfferedRate);
  report->Info("cached_keys", static_cast<double>(schedule.warm.size()));

  std::vector<double> setup_s, load_s;
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    const Clock::time_point start = Clock::now();
    double loads = 0.0;
    server = StartServer(run.dir, &loads, report);
    setup_s.push_back(SecondsSince(start));
    load_s.push_back(loads);
  }

  // Warm-up: every cached key computed once, so the measured phases see
  // the cache state the mix assumes.
  std::vector<Outcome> warm(schedule.warm.size());
  for (size_t i = 0; i < warm.size(); ++i) {
    Record(Exchange(server->connections[0], schedule.warm[i].request),
           &warm[i]);
  }
  const mochy::ServerStats before = server->server->stats();

  std::vector<Outcome> open;
  if (run.trace) open = OpenLoop(*server, schedule.open);

  std::vector<Outcome> closed(schedule.closed.size());
  const double closed_seconds =
      run.trace ? run.seconds * (1.0 - kOpenShare) : run.seconds;
  size_t closed_end = 0;
  double qps = 0.0, traced_qps = 0.0;
  if (!run.trace) {
    qps = ClosedLoop(*server, schedule.closed, 0, closed_seconds, &closed,
                     &closed_end);
  } else {
    // Half untraced, half traced: the tracing overhead on one mix.
    SetTracing(false);
    size_t middle = 0;
    qps = ClosedLoop(*server, schedule.closed, 0, closed_seconds / 2, &closed,
                     &middle);
    SetTracing(true);
    traced_qps = ClosedLoop(*server, schedule.closed, middle,
                            closed_seconds / 2, &closed, &closed_end);
  }
  if (closed_end == schedule.closed.size()) {
    std::fprintf(stderr, "perfbench: closed-loop list ran out early\n");
  }
  const double peak_rss_mb = PeakRssMb();
  const mochy::ServerStats after = server->server->stats();
  report->Info("closed_requests", static_cast<double>(closed_end));

  // Open-loop latency; a failed or refused request misses any limit.
  std::vector<double> latency, hit_latency, cold_latency;
  for (const Outcome& o : open) {
    const double ms = o.ok ? o.latency_ms : INFINITY;
    latency.push_back(ms);
    (o.cached ? hit_latency : cold_latency).push_back(ms);
  }
  const double p50 = Quantile(latency, 0.50);
  const double p99 = Quantile(latency, 0.99);
  size_t beyond_p99 = 0;
  for (const double ms : latency) beyond_p99 += ms > p99 ? 1 : 0;
  if (run.trace) {
    report->Info("latency_samples", static_cast<double>(latency.size()));
    report->Info("samples_beyond_p99", static_cast<double>(beyond_p99));
  }

  // Traced probes, while the server is still up: the in-process handler
  // on cached and on never-seen keys, and the socket round trip.
  std::vector<double> handle_hit_us, round_trip_us, handle_cold_ms;
  if (run.trace) {
    for (const Entry& entry : schedule.open) {
      if (entry.cold) continue;
      if (handle_hit_us.size() == 2000) break;
      {
        ScopedSpan span("serve.handle");
        server->server->HandleRequest(entry.request);
        handle_hit_us.push_back(1e6 * span.End());
      }
      ScopedSpan span("serve.round_trip");
      Outcome o;
      Record(Exchange(server->connections[0], entry.request), &o);
      round_trip_us.push_back(1e6 * span.End());
    }
    const uint64_t probe_base = DeriveSeed(run.seed, 99) % (1ull << 40);
    for (uint64_t i = 0; i < 20; ++i) {
      ScopedSpan span("serve.handle_cold");
      server->server->HandleRequest(ColdRequest(probe_base, i));
      handle_cold_ms.push_back(1e3 * span.End());
    }
  }
  server.reset();

  // Every served result must equal the offline render, byte for byte.
  OfflineRenderer offline(run.dir, report);
  uint64_t mismatches = 0, errors = 0, refused = 0, bytes = 0, requests = 0;
  auto verify = [&](const std::vector<Entry>& entries,
                    const std::vector<Outcome>& outcomes) {
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      if (!o.sent) continue;
      ++requests;
      bytes += o.bytes;
      refused += o.refused ? 1 : 0;
      errors += !o.ok && !o.refused ? 1 : 0;
      report->Attempt(o.ok ? mochy::Status::OK()
                           : mochy::Status::Unavailable(entries[i].request),
                      "served request");
      if (o.ok && o.hash != offline.Hash(entries[i].request)) ++mismatches;
    }
  };
  verify(schedule.warm, warm);
  verify(schedule.open, open);
  verify(schedule.closed, closed);
  report->Check(mismatches == 0,
                "served bodies are byte-identical to the offline renders (" +
                    std::to_string(mismatches) + " differ)");

  if (!run.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("peak_rss_mb", peak_rss_mb, "MB");
    report->Metric("pass_s", PassSeconds(closed, 0, closed_end), "s");
    return;
  }

  // Duplicate cold computes: cold requests answered uncached, per key.
  std::map<std::string, int> cold_computes;
  auto tally = [&](const std::vector<Entry>& entries,
                   const std::vector<Outcome>& outcomes) {
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (!entries[i].cold || !outcomes[i].sent) continue;
      cold_computes[entries[i].request] += outcomes[i].cached ? 0 : 1;
    }
  };
  tally(schedule.open, open);
  tally(schedule.closed, closed);
  double computes = 0.0;
  for (const auto& [key, n] : cold_computes) computes += n;

  // A sender that slept was late by late_ms; one that was still busy when
  // the request fell due left it waiting wait_ms (the other field is 0).
  double wait_total = 0.0, late_total = 0.0, slept = 0.0;
  for (const Outcome& o : open) {
    wait_total += o.wait_ms;
    late_total += o.late_ms;
    slept += o.slept ? 1.0 : 0.0;
  }
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double lookups =
      hits + static_cast<double>(after.cache.misses - before.cache.misses);
  const double hit_us = Median(handle_hit_us);

  report->Metric("serve.p50_ms", p50, "ms");
  report->Metric("serve.p99_ms", p99, "ms");
  report->Metric("serve.qps", qps, "1/s");
  report->Metric("hypergraph.load_s", Median(load_s), "s");
  report->Metric("serve.handle_hit_us", hit_us, "us");
  report->Metric("serve.transport_us", Median(round_trip_us) - hit_us, "us");
  report->Metric("serve.handle_cold_ms", Median(handle_cold_ms), "ms");
  report->Metric("serve.queue_wait_ms",
                 wait_total / static_cast<double>(open.size()), "ms");
  report->Metric("serve.cold_computes_per_key",
                 computes / static_cast<double>(cold_computes.size()), "ratio");
  report->Metric("serve.cache.hit_rate", lookups > 0 ? hits / lookups : 0.0,
                 "ratio");
  report->Metric("serve.bytes_out_per_req",
                 static_cast<double>(bytes) / static_cast<double>(requests),
                 "B");
  report->Metric("serve.generator_late_ms",
                 slept > 0 ? late_total / slept : 0.0, "ms");
  report->Metric("serve.errors", static_cast<double>(errors), "count");
  report->Metric("serve.refused", static_cast<double>(refused), "count");
  report->Metric("serve.samples", static_cast<double>(latency.size()), "count");
  report->Metric("serve.hit.p50_ms", Quantile(hit_latency, 0.50), "ms");
  report->Metric("serve.hit.p99_ms", Quantile(hit_latency, 0.99), "ms");
  report->Metric("serve.cold.p50_ms", Quantile(cold_latency, 0.50), "ms");
  report->Metric("serve.cold.p99_ms", Quantile(cold_latency, 0.99), "ms");
  // Where the overall percentiles sit: p50 inside the hit mode, p99 inside
  // the cold-compute mode (1 = yes).
  report->Metric("serve.p50_in_hit_mode",
                 p50 <= Quantile(hit_latency, 0.99) ? 1.0 : 0.0, "count");
  report->Metric("serve.p99_in_cold_mode",
                 p99 >= Quantile(cold_latency, 0.01) ? 1.0 : 0.0, "count");
  report->Metric("trace.overhead_pct", 100.0 * (qps / traced_qps - 1.0), "%");
}

}  // namespace perfbench
