#include "motif/streaming_wal.h"

#include <fcntl.h>
#include <libgen.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/hash.h"
#include "common/logging.h"

namespace mochy {

namespace {

// On-disk record: [u32 payload_len][u32 checksum][payload], all
// little-endian. Payload type tags:
constexpr uint8_t kRecordAdd = 1;     // u8 tag, u32 n, n * u32 node ids
constexpr uint8_t kRecordRemove = 2;  // u8 tag, u64 edge id
// A record far above any real edge is treated as corruption, so a
// garbage length prefix cannot allocate unbounded memory during replay.
constexpr uint32_t kMaxRecordBytes = 64u << 20;

constexpr uint32_t kCheckpointMagic = 0x504b434d;  // "MCKP" little-endian
constexpr uint32_t kCheckpointVersion = 1;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// FNV-1a over raw bytes, folded to 32 bits for record headers.
uint32_t Checksum32(const char* data, size_t size) {
  const uint64_t h = Fnv1a64(data, size);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void AppendU32(std::string& out, uint32_t v) {
  char bytes[4] = {static_cast<char>(v & 0xff),
                   static_cast<char>((v >> 8) & 0xff),
                   static_cast<char>((v >> 16) & 0xff),
                   static_cast<char>((v >> 24) & 0xff)};
  out.append(bytes, sizeof(bytes));
}

void AppendU64(std::string& out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xffffffffULL));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

/// Bounds-checked little-endian reader over a parsed buffer.
struct Reader {
  const char* data;
  size_t size;
  size_t pos = 0;

  bool ReadU8(uint8_t* v) {
    if (pos + 1 > size) return false;
    *v = static_cast<uint8_t>(data[pos++]);
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos + 4 > size) return false;
    const unsigned char* p = reinterpret_cast<const unsigned char*>(data + pos);
    *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    pos += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }
};

/// One parsed WAL record.
struct WalOp {
  uint8_t type = 0;
  std::vector<NodeId> nodes;  // kRecordAdd
  EdgeId edge = 0;            // kRecordRemove
};

/// Parses the longest valid record prefix of `buffer` into `ops`;
/// returns the byte length of that prefix (everything after it is a
/// torn or corrupt tail the caller truncates away).
size_t ParseWal(const std::string& buffer, std::vector<WalOp>* ops) {
  size_t offset = 0;
  while (true) {
    Reader header{buffer.data(), buffer.size(), offset};
    uint32_t payload_len = 0, checksum = 0;
    if (!header.ReadU32(&payload_len) || !header.ReadU32(&checksum)) break;
    if (payload_len > kMaxRecordBytes) break;
    if (header.pos + payload_len > buffer.size()) break;
    const char* payload = buffer.data() + header.pos;
    if (Checksum32(payload, payload_len) != checksum) break;

    Reader body{payload, payload_len};
    WalOp op;
    if (!body.ReadU8(&op.type)) break;
    bool valid = false;
    if (op.type == kRecordAdd) {
      uint32_t n = 0;
      if (body.ReadU32(&n) && body.pos + 4ull * n <= body.size) {
        op.nodes.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
          uint32_t node = 0;
          body.ReadU32(&node);
          op.nodes[i] = node;
        }
        valid = body.pos == body.size;
      }
    } else if (op.type == kRecordRemove) {
      uint64_t edge = 0;
      if (body.ReadU64(&edge)) {
        op.edge = static_cast<EdgeId>(edge);
        valid = body.pos == body.size;
      }
    }
    if (!valid) break;
    ops->push_back(std::move(op));
    offset = header.pos + payload_len;
  }
  return offset;
}

/// Everything a checkpoint captures.
struct CheckpointData {
  uint64_t records_applied = 0;
  uint64_t arrivals = 0;
  uint64_t removals = 0;
  MotifCounts counts;
  std::vector<std::vector<NodeId>> edges;
  std::vector<uint8_t> live;
};

std::string EncodeCheckpoint(const CheckpointData& data) {
  std::string out;
  AppendU32(out, kCheckpointMagic);
  AppendU32(out, kCheckpointVersion);
  AppendU64(out, data.records_applied);
  AppendU64(out, data.arrivals);
  AppendU64(out, data.removals);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    // Raw double bits: the restored counts must be the exact values,
    // not a decimal round-trip.
    uint64_t bits = 0;
    const double value = data.counts[t];
    std::memcpy(&bits, &value, sizeof(bits));
    AppendU64(out, bits);
  }
  AppendU64(out, data.edges.size());
  for (size_t e = 0; e < data.edges.size(); ++e) {
    out.push_back(static_cast<char>(data.live[e]));
    AppendU32(out, static_cast<uint32_t>(data.edges[e].size()));
    for (const NodeId v : data.edges[e]) AppendU32(out, v);
  }
  AppendU64(out, Fnv1a64(out.data(), out.size()));
  return out;
}

std::optional<CheckpointData> DecodeCheckpoint(const std::string& buffer) {
  if (buffer.size() < 8 + 8) return std::nullopt;
  const size_t body = buffer.size() - 8;
  Reader tail{buffer.data(), buffer.size(), body};
  uint64_t checksum = 0;
  tail.ReadU64(&checksum);
  if (Fnv1a64(buffer.data(), body) != checksum) return std::nullopt;

  Reader r{buffer.data(), body};
  uint32_t magic = 0, version = 0;
  if (!r.ReadU32(&magic) || magic != kCheckpointMagic) return std::nullopt;
  if (!r.ReadU32(&version) || version != kCheckpointVersion) {
    return std::nullopt;
  }
  CheckpointData data;
  if (!r.ReadU64(&data.records_applied) || !r.ReadU64(&data.arrivals) ||
      !r.ReadU64(&data.removals)) {
    return std::nullopt;
  }
  for (int t = 1; t <= kNumHMotifs; ++t) {
    uint64_t bits = 0;
    if (!r.ReadU64(&bits)) return std::nullopt;
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    data.counts[t] = value;
  }
  uint64_t num_edges = 0;
  if (!r.ReadU64(&num_edges)) return std::nullopt;
  data.edges.reserve(num_edges);
  data.live.reserve(num_edges);
  for (uint64_t e = 0; e < num_edges; ++e) {
    uint8_t live = 0;
    uint32_t n = 0;
    if (!r.ReadU8(&live) || !r.ReadU32(&n)) return std::nullopt;
    if (r.pos + 4ull * n > r.size) return std::nullopt;
    std::vector<NodeId> nodes(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t node = 0;
      r.ReadU32(&node);
      nodes[i] = node;
    }
    data.edges.push_back(std::move(nodes));
    data.live.push_back(live);
  }
  if (r.pos != r.size) return std::nullopt;
  return data;
}

Status WriteAllAt(int fd, const char* data, size_t size, uint64_t offset) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::pwrite(fd, data + written, size - written,
                               static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite");
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(int fd) {
  std::string buffer;
  char chunk[1 << 16];
  uint64_t offset = 0;
  while (true) {
    const ssize_t n = ::pread(fd, chunk, sizeof(chunk),
                              static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread");
    }
    if (n == 0) return buffer;
    buffer.append(chunk, static_cast<size_t>(n));
    offset += static_cast<uint64_t>(n);
  }
}

/// fsync of the directory containing `path`, so a just-renamed
/// checkpoint survives a crash of the directory entry itself.
void SyncParentDir(const std::string& path) {
  std::string copy = path;
  const char* dir = ::dirname(copy.data());
  const int fd = ::open(dir, O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

PersistentStreamingEngine::PersistentStreamingEngine(const WalOptions& options,
                                                     int wal_fd)
    : options_(options), engine_(options.streaming), wal_fd_(wal_fd) {}

PersistentStreamingEngine::~PersistentStreamingEngine() {
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

Result<std::unique_ptr<PersistentStreamingEngine>>
PersistentStreamingEngine::Open(const WalOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("WAL path must not be empty");
  }
  const int fd = ::open(options.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                        0644);
  if (fd < 0) return Errno("open " + options.path);

  auto buffer = ReadWholeFile(fd);
  if (!buffer.ok()) {
    ::close(fd);
    return buffer.status();
  }
  std::vector<WalOp> ops;
  const size_t valid_bytes = ParseWal(buffer.value(), &ops);

  std::unique_ptr<PersistentStreamingEngine> engine(
      new PersistentStreamingEngine(options, fd));
  if (valid_bytes < buffer.value().size()) {
    // Torn or corrupt tail — a crash mid-append. Everything before it
    // is checksummed and complete; drop the rest so appends resume at
    // a clean boundary.
    engine->recovery_.truncated_bytes = buffer.value().size() - valid_bytes;
    if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) < 0) {
      return Errno("ftruncate " + options.path);
    }
    MOCHY_LOG(Warning) << "WAL " << options.path << ": dropped "
                       << engine->recovery_.truncated_bytes
                       << " torn tail bytes";
  }
  engine->wal_size_ = valid_bytes;

  // Restore the newest valid checkpoint, if any. An unreadable or
  // version-mismatched checkpoint is not fatal: the WAL alone rebuilds
  // the same state, just more slowly.
  size_t start = 0;
  const std::string ckpt_path = options.path + ".ckpt";
  const int ckpt_fd = ::open(ckpt_path.c_str(), O_RDONLY | O_CLOEXEC);
  if (ckpt_fd >= 0) {
    auto ckpt_buffer = ReadWholeFile(ckpt_fd);
    ::close(ckpt_fd);
    std::optional<CheckpointData> ckpt;
    if (ckpt_buffer.ok()) ckpt = DecodeCheckpoint(ckpt_buffer.value());
    if (ckpt.has_value() && ckpt->records_applied <= ops.size()) {
      MOCHY_RETURN_IF_ERROR(engine->engine_.Restore(
          ckpt->edges, ckpt->live, ckpt->counts, ckpt->arrivals,
          ckpt->removals));
      start = static_cast<size_t>(ckpt->records_applied);
      engine->recovery_.checkpoint_records = ckpt->records_applied;
    } else {
      MOCHY_LOG(Warning) << "WAL checkpoint " << ckpt_path
                         << (ckpt.has_value()
                                 ? " covers records the log does not have"
                                 : " is unreadable")
                         << "; replaying the full log instead";
    }
  }

  // Replay the tail through the normal delta passes: the restored graph
  // and counts are exactly the state the original run had at the
  // checkpoint, so every replayed update lands bit-identically.
  for (size_t i = start; i < ops.size(); ++i) {
    const WalOp& op = ops[i];
    if (op.type == kRecordAdd) {
      auto added = engine->engine_.AddEdge(op.nodes);
      if (!added.ok()) {
        return Status::Internal("WAL replay: record " + std::to_string(i) +
                                " rejected: " + added.status().message());
      }
    } else {
      MOCHY_RETURN_IF_ERROR(engine->engine_.RemoveEdge(op.edge));
    }
  }
  engine->recovery_.replayed_records = ops.size() - start;
  engine->records_ = ops.size();
  engine->records_since_checkpoint_ = ops.size() - start;
  return engine;
}

Status PersistentStreamingEngine::AppendRecord(std::string_view payload) {
  std::string record;
  record.reserve(payload.size() + 8);
  AppendU32(record, static_cast<uint32_t>(payload.size()));
  AppendU32(record, Checksum32(payload.data(), payload.size()));
  record.append(payload);

  auto undo = [this]() {
    // The record is not acknowledged; leave no trace of it, so the
    // in-memory engine and the durable log never disagree.
    ::ftruncate(wal_fd_, static_cast<off_t>(wal_size_));
  };

  const FaultAction write_fault = MOCHY_FAULT_POINT("wal.append");
  if (write_fault.kind == FaultAction::Kind::kError) {
    return Status::IOError("wal append: injected fault: " +
                           std::string(std::strerror(write_fault.fault_errno)));
  }
  size_t write_bytes = record.size();
  if (write_fault.kind == FaultAction::Kind::kShortIo) {
    write_bytes = std::min(write_bytes, write_fault.max_bytes);
  }
  Status written = WriteAllAt(wal_fd_, record.data(), write_bytes, wal_size_);
  if (written.ok() && write_bytes < record.size()) {
    written = Status::IOError("wal append: injected torn write (" +
                              std::to_string(write_bytes) + " of " +
                              std::to_string(record.size()) + " bytes)");
  }
  if (!written.ok()) {
    undo();
    return written;
  }
  if (options_.sync_every_record) {
    const FaultAction sync_fault = MOCHY_FAULT_POINT("wal.fsync");
    if (sync_fault.kind == FaultAction::Kind::kError) {
      undo();
      return Status::IOError(
          "wal fsync: injected fault: " +
          std::string(std::strerror(sync_fault.fault_errno)));
    }
    if (::fdatasync(wal_fd_) < 0) {
      undo();
      return Errno("fdatasync " + options_.path);
    }
  }
  wal_size_ += record.size();
  ++records_;
  ++records_since_checkpoint_;
  return Status::OK();
}

Status PersistentStreamingEngine::MaybeAutoCheckpoint() {
  if (options_.checkpoint_interval == 0 ||
      records_since_checkpoint_ < options_.checkpoint_interval) {
    return Status::OK();
  }
  // A failed auto-checkpoint costs replay time, not correctness (the
  // WAL has everything); warn and retry at the next interval.
  if (Status s = Checkpoint(); !s.ok()) {
    MOCHY_LOG(Warning) << "auto-checkpoint failed: " << s.ToString();
  }
  return Status::OK();
}

Result<EdgeId> PersistentStreamingEngine::AddEdge(
    std::span<const NodeId> nodes) {
  if (nodes.empty()) {
    // Pre-validate what the engine would reject: a rejected update must
    // not reach the durable log.
    return Status::InvalidArgument("hyperedge needs at least one node");
  }
  std::string payload;
  payload.push_back(static_cast<char>(kRecordAdd));
  AppendU32(payload, static_cast<uint32_t>(nodes.size()));
  for (const NodeId v : nodes) AppendU32(payload, v);
  MOCHY_RETURN_IF_ERROR(AppendRecord(payload));
  auto added = engine_.AddEdge(nodes);
  if (!added.ok()) {
    return Status::Internal("engine rejected a logged arrival: " +
                            added.status().message());
  }
  MOCHY_RETURN_IF_ERROR(MaybeAutoCheckpoint());
  return added;
}

Result<EdgeId> PersistentStreamingEngine::AddEdge(
    std::initializer_list<NodeId> nodes) {
  return AddEdge(std::span<const NodeId>(nodes.begin(), nodes.size()));
}

Status PersistentStreamingEngine::RemoveEdge(EdgeId e) {
  if (e >= engine_.graph().num_edges() || !engine_.graph().is_live(e)) {
    return Status::InvalidArgument("edge id not live");
  }
  std::string payload;
  payload.push_back(static_cast<char>(kRecordRemove));
  AppendU64(payload, e);
  MOCHY_RETURN_IF_ERROR(AppendRecord(payload));
  Status removed = engine_.RemoveEdge(e);
  if (!removed.ok()) {
    return Status::Internal("engine rejected a logged removal: " +
                            removed.message());
  }
  MOCHY_RETURN_IF_ERROR(MaybeAutoCheckpoint());
  return Status::OK();
}

Status PersistentStreamingEngine::Checkpoint() {
  CheckpointData data;
  data.records_applied = records_;
  data.arrivals = engine_.stats().arrivals;
  data.removals = engine_.stats().removals;
  data.counts = engine_.counts();
  const DynamicHypergraph& graph = engine_.graph();
  data.edges.reserve(graph.num_edges());
  data.live.reserve(graph.num_edges());
  for (size_t e = 0; e < graph.num_edges(); ++e) {
    const auto span = graph.edge(static_cast<EdgeId>(e));
    data.edges.emplace_back(span.begin(), span.end());
    data.live.push_back(graph.is_live(static_cast<EdgeId>(e)) ? 1 : 0);
  }
  const std::string encoded = EncodeCheckpoint(data);

  const std::string ckpt_path = options_.path + ".ckpt";
  const std::string tmp_path = ckpt_path + ".tmp";
  const FaultAction write_fault = MOCHY_FAULT_POINT("wal.checkpoint.write");
  if (write_fault.kind == FaultAction::Kind::kError) {
    return Status::IOError("checkpoint write: injected fault: " +
                           std::string(std::strerror(write_fault.fault_errno)));
  }
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open " + tmp_path);
  Status written = WriteAllAt(fd, encoded.data(), encoded.size(), 0);
  if (written.ok() && ::fsync(fd) < 0) written = Errno("fsync " + tmp_path);
  ::close(fd);
  if (!written.ok()) {
    ::unlink(tmp_path.c_str());
    return written;
  }
  const FaultAction rename_fault = MOCHY_FAULT_POINT("wal.checkpoint.rename");
  if (rename_fault.kind == FaultAction::Kind::kError) {
    ::unlink(tmp_path.c_str());
    return Status::IOError(
        "checkpoint rename: injected fault: " +
        std::string(std::strerror(rename_fault.fault_errno)));
  }
  // rename is atomic: recovery sees either the old checkpoint or the
  // new one, never a half-written file.
  if (::rename(tmp_path.c_str(), ckpt_path.c_str()) < 0) {
    const Status status = Errno("rename " + tmp_path);
    ::unlink(tmp_path.c_str());
    return status;
  }
  SyncParentDir(ckpt_path);
  records_since_checkpoint_ = 0;
  return Status::OK();
}

}  // namespace mochy
