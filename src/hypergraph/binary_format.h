// Binary on-disk container for hypergraphs (".mhg").
//
// The text format (hypergraph/io.h) stays the interchange/import format;
// this container is the out-of-core tier: the four CSR arrays of
// Hypergraph are stored verbatim (little-endian) behind a versioned
// header. LoadHypergraphBinary maps the file with mmap(2) and returns a
// Hypergraph whose spans point straight into the mapping (no copy, no
// tokenize/sort/dedup), kept mapped while the graph or a copy lives.
// SaveHypergraphBinary writes the graph's four spans and renames the
// result over the target, so re-saving a file that a live graph was
// loaded from leaves that graph's mapping intact.
//
// Layout (all integers little-endian; full tables in docs/STORAGE.md):
//
//   [0]   u32 magic "MHG1"
//   [4]   u32 version (currently 1)
//   [8]   u64 flags (reserved, must be 0)
//   [16]  u64 num_nodes
//   [24]  u64 num_edges
//   [32]  u64 num_pins
//   [40]  4 × section descriptor {u64 offset, u64 length, u64 fnv64}
//         sections in order: edge_offsets u64[num_edges+1],
//         edge_nodes u32[num_pins], node_offsets u64[num_nodes+1],
//         node_edges u32[num_pins]
//   [136] u64 fnv64 over header bytes [0, 136)
//   [144] section payloads, each 8-byte aligned, zero padded
//
// Error taxonomy on load: wrong magic or unsupported version/flags →
// kInvalidArgument; a file shorter than its header counts or section
// descriptors claim → kOutOfRange; open/map failures and checksum mismatches (bit rot) →
// kIOError; intact bytes that break the CSR invariants → kInternal
// (Hypergraph::Validate).
#ifndef MOCHY_HYPERGRAPH_BINARY_FORMAT_H_
#define MOCHY_HYPERGRAPH_BINARY_FORMAT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "hypergraph/builder.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/types.h"

namespace mochy {

/// File magic ("MHG1" as a little-endian u32) and current format version.
inline constexpr uint32_t kBinaryHypergraphMagic = 0x3147484Du;
inline constexpr uint32_t kBinaryHypergraphVersion = 1;

/// Writes `graph` to `path` in the binary container format: the file is
/// written as `path` + ".tmp" and renamed over `path`.
Status SaveHypergraphBinary(const Hypergraph& graph, const std::string& path);

/// Maps and verifies `path` (header, section checksums, then
/// Hypergraph::Validate) and returns a graph viewing the mapping
/// zero-copy. See the header comment for the error taxonomy.
Result<Hypergraph> LoadHypergraphBinary(const std::string& path);

/// True when the file starts with the binary container magic. Missing or
/// unreadable files return false (the subsequent load reports the error).
bool IsBinaryHypergraphFile(const std::string& path);

/// Loads either format: sniffs the magic bytes and dispatches to
/// LoadHypergraphBinary or the text importer. `options` applies to the
/// text path only — binary containers store an already-built graph.
Result<Hypergraph> LoadHypergraphAuto(const std::string& path,
                                      const BuildOptions& options = {});

}  // namespace mochy

#endif  // MOCHY_HYPERGRAPH_BINARY_FORMAT_H_
