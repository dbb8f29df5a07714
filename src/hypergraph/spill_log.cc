#include "hypergraph/spill_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/fault.h"

namespace mochy {

namespace {

constexpr size_t kRecordHeaderBytes = 8;  // u32 payload_len + u32 checksum
constexpr size_t kNeighborWireBytes = 8;  // u32 edge + u32 weight
// Neighbors are written and read as their own bytes.
static_assert(sizeof(Neighbor) == kNeighborWireBytes &&
              std::is_trivially_copyable_v<Neighbor>);
// Guards the reader against a corrupt length prefix asking for an
// absurd allocation; generous next to any real neighborhood.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;

// Word-at-a-time hash of a record payload: each 8-byte word, and the
// zero-padded tail, is folded in by a multiply and an xor-shift, both
// bijections of the 64-bit state, so any change to one word changes the
// state; a final avalanche spreads it into the 32 bits kept. Spill files
// never outlive the process that wrote them, so the words are read in
// host byte order and no on-disk format is fixed.
uint32_t Checksum32(const unsigned char* data, size_t len) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = 0xcbf29ce484222325ULL ^ len;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  if (i < len) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, len - i);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void PutU32(unsigned char* p, uint32_t v) { std::memcpy(p, &v, sizeof v); }

uint32_t GetU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

constexpr std::string_view kKeyPrefix = "spill##";  // + "<edge>##<count>\n"

// Parses the key at the start of [text, end); returns the byte after its
// newline, or nullptr when the key is malformed.
const char* ParseKey(const char* text, const char* end, uint32_t* edge,
                     size_t* count) {
  if (static_cast<size_t>(end - text) < kKeyPrefix.size() ||
      std::memcmp(text, kKeyPrefix.data(), kKeyPrefix.size()) != 0) {
    return nullptr;
  }
  const auto [after_edge, edge_error] =
      std::from_chars(text + kKeyPrefix.size(), end, *edge);
  if (edge_error != std::errc() || end - after_edge < 2 ||
      after_edge[0] != '#' || after_edge[1] != '#') {
    return nullptr;
  }
  const auto [after_count, count_error] =
      std::from_chars(after_edge + 2, end, *count);
  if (count_error != std::errc() || after_count == end ||
      *after_count != '\n') {
    return nullptr;
  }
  return after_count + 1;
}

// pwrite() the whole buffer at `offset`, retrying partial writes.
bool PwriteAll(int fd, const unsigned char* data, size_t len,
               uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::pwrite(fd, data + done, len - done, static_cast<off_t>(offset + done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool PreadAll(int fd, unsigned char* data, size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::pread(fd, data + done, len - done, static_cast<off_t>(offset + done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<SpillLog>> SpillLog::Create(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create spill log " + path + ": " +
                           std::strerror(errno));
  }
  return std::unique_ptr<SpillLog>(new SpillLog(path, fd));
}

SpillLog::~SpillLog() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());  // scratch: one engine lifetime only
  }
}

bool SpillLog::Append(EdgeId e, std::span<const Neighbor> neighbors) {
  if (index_.find(e) != index_.end()) return false;  // identical bytes live

  char key[64];
  const int key_len =
      std::snprintf(key, sizeof key, "spill##%" PRIu32 "##%zu\n",
                    static_cast<uint32_t>(e), neighbors.size());
  const auto* words = reinterpret_cast<const unsigned char*>(neighbors.data());
  std::vector<unsigned char> record(kRecordHeaderBytes);
  record.reserve(kRecordHeaderBytes + static_cast<size_t>(key_len) +
                 neighbors.size_bytes());
  record.insert(record.end(), key, key + key_len);
  record.insert(record.end(), words, words + neighbors.size_bytes());
  const size_t payload_len = record.size() - kRecordHeaderBytes;
  PutU32(record.data(), static_cast<uint32_t>(payload_len));
  PutU32(record.data() + 4,
         Checksum32(record.data() + kRecordHeaderBytes, payload_len));

  size_t write_bytes = record.size();
  const FaultAction fault = MOCHY_FAULT_POINT("spill.append");
  if (fault.kind == FaultAction::Kind::kError) return false;  // spill dropped
  if (fault.kind == FaultAction::Kind::kShortIo) {
    // Torn write: only a prefix lands, but the index still points at the
    // full extent — exactly the state a crash mid-append would leave.
    // ReadRecord detects it by checksum and the caller recomputes.
    write_bytes = std::min(write_bytes, fault.max_bytes);
  }
  if (!PwriteAll(fd_, record.data(), write_bytes, end_offset_)) return false;

  index_[e] = RecordRef{end_offset_, static_cast<uint32_t>(record.size())};
  end_offset_ += record.size();
  return true;
}

bool SpillLog::Lookup(EdgeId e, RecordRef* ref) const {
  const auto it = index_.find(e);
  if (it == index_.end()) return false;
  *ref = it->second;
  return true;
}

void SpillLog::Invalidate(EdgeId e) { index_.erase(e); }

bool SpillLog::ReadRecord(const RecordRef& ref, EdgeId expect,
                          std::vector<Neighbor>* out) const {
  if (ref.length < kRecordHeaderBytes ||
      ref.length - kRecordHeaderBytes > kMaxPayloadBytes) {
    return false;
  }
  // The record lands in *out's own storage, and its neighbor words are
  // then slid to the front: no buffer of its own per read.
  out->resize((ref.length + sizeof(Neighbor) - 1) / sizeof(Neighbor));
  unsigned char* record = reinterpret_cast<unsigned char*>(out->data());

  size_t read_bytes = ref.length;
  const FaultAction fault = MOCHY_FAULT_POINT("spill.read");
  if (fault.kind == FaultAction::Kind::kError) return false;
  if (fault.kind == FaultAction::Kind::kShortIo) {
    read_bytes = std::min(read_bytes, fault.max_bytes);
  }
  if (!PreadAll(fd_, record, read_bytes, ref.offset)) return false;
  if (read_bytes < ref.length) return false;  // short read: torn record

  const uint32_t payload_len = GetU32(record);
  if (payload_len != ref.length - kRecordHeaderBytes) return false;
  const unsigned char* payload = record + kRecordHeaderBytes;
  if (GetU32(record + 4) != Checksum32(payload, payload_len)) return false;

  const char* text = reinterpret_cast<const char*>(payload);
  const char* const end = text + payload_len;
  uint32_t edge = 0;
  size_t count = 0;
  const char* words = ParseKey(text, end, &edge, &count);
  if (words == nullptr || edge != expect) return false;
  const size_t word_bytes = static_cast<size_t>(end - words);
  if (word_bytes % kNeighborWireBytes != 0 ||
      word_bytes / kNeighborWireBytes != count) {
    return false;
  }
  std::memmove(out->data(), words, word_bytes);
  out->resize(count);
  return true;
}

}  // namespace mochy
