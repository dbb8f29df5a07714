#include "hypergraph/binary_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "hypergraph/io.h"

// The section payloads are the in-memory CSR arrays written verbatim, so
// the zero-copy read path can only reinterpret them on a little-endian
// host. Big-endian ports would need an explicit byte-swapping loader.
static_assert(std::endian::native == std::endian::little,
              "binary hypergraph container requires a little-endian host");

namespace mochy {

namespace {

constexpr size_t kHeaderBytes = 144;
constexpr size_t kSectionTableOffset = 40;
constexpr size_t kNumSections = 4;
constexpr size_t kHeaderChecksumOffset = 136;

struct SectionDesc {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
};

void PutU32(std::vector<unsigned char>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

void PutU64(std::vector<unsigned char>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

size_t AlignUp8(size_t v) { return (v + 7) & ~size_t{7}; }

}  // namespace

Status SaveHypergraphBinary(const Hypergraph& graph, const std::string& path) {
  const void* section_data[kNumSections] = {
      graph.edge_offsets().data(), graph.edge_nodes().data(),
      graph.node_offsets().data(), graph.node_edges().data()};
  const size_t section_bytes[kNumSections] = {
      graph.edge_offsets().size_bytes(), graph.edge_nodes().size_bytes(),
      graph.node_offsets().size_bytes(), graph.node_edges().size_bytes()};

  SectionDesc descs[kNumSections];
  size_t cursor = kHeaderBytes;
  for (size_t s = 0; s < kNumSections; ++s) {
    descs[s].offset = cursor;
    descs[s].length = section_bytes[s];
    descs[s].checksum = Fnv1a64(section_data[s], section_bytes[s]);
    cursor = AlignUp8(cursor + section_bytes[s]);
  }

  std::vector<unsigned char> header;
  header.reserve(kHeaderBytes);
  PutU32(&header, kBinaryHypergraphMagic);
  PutU32(&header, kBinaryHypergraphVersion);
  PutU64(&header, 0);  // flags (reserved)
  PutU64(&header, graph.num_nodes());
  PutU64(&header, graph.num_edges());
  PutU64(&header, graph.num_pins());
  for (const SectionDesc& d : descs) {
    PutU64(&header, d.offset);
    PutU64(&header, d.length);
    PutU64(&header, d.checksum);
  }
  PutU64(&header, Fnv1a64(header.data(), header.size()));

  // Write a sibling file and rename it over `path`: a graph loaded from
  // the old file keeps reading its own (now unlinked) mapping, where
  // truncating in place would make its next read fault.
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + tmp_path);
  }
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  size_t written = kHeaderBytes;
  static constexpr unsigned char kPad[8] = {0};
  for (size_t s = 0; ok && s < kNumSections; ++s) {
    // An empty graph has zero-length sections whose data() may be null;
    // fwrite's pointer argument must not be null even for n == 0.
    ok = section_bytes[s] == 0 ||
         std::fwrite(section_data[s], 1, section_bytes[s], f) ==
             section_bytes[s];
    written += section_bytes[s];
    const size_t pad = AlignUp8(written) - written;
    if (ok && pad > 0) {
      ok = std::fwrite(kPad, 1, pad, f) == pad;
      written += pad;
    }
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::IOError("short write to " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status status = Status::IOError("rename " + tmp_path + " to " +
                                          path + ": " + std::strerror(errno));
    std::remove(tmp_path.c_str());
    return status;
  }
  return Status::OK();
}

Result<Hypergraph> LoadHypergraphBinary(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fstat failed for " + path + ": " +
                           std::strerror(err));
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  if (file_bytes < kHeaderBytes) {
    ::close(fd);
    return Status::OutOfRange("truncated header: " + path + " is " +
                              std::to_string(file_bytes) + " bytes, header needs " +
                              std::to_string(kHeaderBytes));
  }
  void* base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (base == MAP_FAILED) {
    return Status::IOError("mmap failed for " + path + ": " +
                           std::strerror(errno));
  }

  // The mapping lives as long as the returned graph or any copy of it;
  // every early return below unmaps it.
  std::shared_ptr<const void> mapping(
      base, [file_bytes](const void* p) {
        ::munmap(const_cast<void*>(p), file_bytes);
      });
  const auto* bytes = static_cast<const unsigned char*>(base);

  const uint32_t magic = GetU32(bytes);
  if (magic != kBinaryHypergraphMagic) {
    return Status::InvalidArgument("not a binary hypergraph (bad magic): " +
                                   path);
  }
  const uint32_t version = GetU32(bytes + 4);
  if (version != kBinaryHypergraphVersion) {
    return Status::InvalidArgument(
        "unsupported binary hypergraph version " + std::to_string(version) +
        " (reader supports " + std::to_string(kBinaryHypergraphVersion) +
        "): " + path);
  }
  if (GetU64(bytes + 8) != 0) {
    return Status::InvalidArgument("unsupported flags in " + path);
  }
  if (GetU64(bytes + kHeaderChecksumOffset) !=
      Fnv1a64(bytes, kHeaderChecksumOffset)) {
    return Status::IOError("header checksum mismatch (corrupt file): " + path);
  }

  const uint64_t num_nodes = GetU64(bytes + 16);
  const uint64_t num_edges = GetU64(bytes + 24);
  const uint64_t num_pins = GetU64(bytes + 32);
  // Counts the file cannot hold are truncation; rejecting them here also
  // keeps the section lengths below from overflowing.
  if (num_nodes >= file_bytes / 8 || num_edges >= file_bytes / 8 ||
      num_pins > file_bytes / 4) {
    return Status::OutOfRange("header counts exceed a truncated file: " +
                              path);
  }

  SectionDesc descs[kNumSections];
  for (size_t s = 0; s < kNumSections; ++s) {
    const unsigned char* d = bytes + kSectionTableOffset + s * 24;
    descs[s].offset = GetU64(d);
    descs[s].length = GetU64(d + 8);
    descs[s].checksum = GetU64(d + 16);
  }
  const uint64_t expected_lengths[kNumSections] = {
      (num_edges + 1) * sizeof(uint64_t), num_pins * sizeof(NodeId),
      (num_nodes + 1) * sizeof(uint64_t), num_pins * sizeof(EdgeId)};
  static const char* const kSectionNames[kNumSections] = {
      "edge_offsets", "edge_nodes", "node_offsets", "node_edges"};
  for (size_t s = 0; s < kNumSections; ++s) {
    if (descs[s].length != expected_lengths[s]) {
      return Status::InvalidArgument(
          std::string("section ") + kSectionNames[s] +
          " length disagrees with header counts in " + path);
    }
    if (descs[s].offset % 8 != 0 || descs[s].offset < kHeaderBytes ||
        descs[s].offset > file_bytes ||
        descs[s].length > file_bytes - descs[s].offset) {
      return Status::OutOfRange(std::string("truncated section ") +
                                kSectionNames[s] + " in " + path);
    }
    if (Fnv1a64(bytes + descs[s].offset, descs[s].length) != descs[s].checksum) {
      return Status::IOError(std::string("checksum mismatch in section ") +
                             kSectionNames[s] + " (corrupt file): " + path);
    }
  }

  Hypergraph graph(
      num_nodes,
      {reinterpret_cast<const uint64_t*>(bytes + descs[0].offset),
       num_edges + 1},
      {reinterpret_cast<const NodeId*>(bytes + descs[1].offset), num_pins},
      {reinterpret_cast<const uint64_t*>(bytes + descs[2].offset),
       num_nodes + 1},
      {reinterpret_cast<const EdgeId*>(bytes + descs[3].offset), num_pins},
      std::move(mapping));
  MOCHY_RETURN_IF_ERROR(graph.Validate());
  return graph;
}

bool IsBinaryHypergraphFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  unsigned char head[4];
  const bool got = std::fread(head, 1, sizeof head, f) == sizeof head;
  std::fclose(f);
  return got && GetU32(head) == kBinaryHypergraphMagic;
}

Result<Hypergraph> LoadHypergraphAuto(const std::string& path,
                                      const BuildOptions& options) {
  if (IsBinaryHypergraphFile(path)) return LoadHypergraphBinary(path);
  return LoadHypergraph(path, options);
}

}  // namespace mochy
