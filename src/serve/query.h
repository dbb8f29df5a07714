/// \file
/// The query table: one row per query kind, shared by the server and the
/// offline CLI.
///
/// The serving layer's contract is "served == offline, byte for byte".
/// It holds by construction because each query kind (count, profile,
/// similarity, per-edge, predict) is one QuerySpec row that both paths
/// go through. A row gives:
///   - the kind's verb and its number of graph operands;
///   - the option keys it accepts, each with one value parser, used for
///     the wire's `key=value` tokens and the CLI's `--flag value` pairs
///     alike, and one encoder, the parser's inverse;
///   - its cache key: the graph fingerprints plus the canonical options,
///     never the thread count;
///   - how its body is computed and rendered.
///
/// MotifServer::HandleRequest parses a request into a Query, resolves
/// the operands from its registry and calls AnswerQuery with its result
/// cache. The offline CLI builds the same Query from its flags, loads
/// the operands from disk and calls AnswerQuery without a cache.
/// `mochy_cli query` sends EncodeQuery's request line.
#ifndef MOCHY_SERVE_QUERY_H_
#define MOCHY_SERVE_QUERY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/lru_cache.h"
#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "ml/features.h"
#include "motif/engine.h"
#include "profile/significance.h"

namespace mochy {

/// The query kinds, in table order.
enum class QueryKind {
  kCount,       ///< h-motif counts or estimates (MotifEngine::Count)
  kProfile,     ///< characteristic profile of one graph
  kSimilarity,  ///< Pearson correlation of two graphs' profiles
  kPerEdge,     ///< exact per-hyperedge motif rows
  kPredict,     ///< the Table-4 hyperedge-prediction pipeline
};

struct Query;

/// One option key of a query kind.
struct QueryOption {
  /// Wire spelling: `key=value`.
  std::string_view key;
  /// CLI spelling: `--flag value`; empty when the option is wire-only.
  std::string_view flag;
  /// Parses `value` into `query`. Errors name the option by `label`:
  /// the key on the wire, the flag in the CLI.
  Status (*parse)(std::string_view value, std::string_view label,
                  Query* query);
  /// Appends the value that `parse` reads back exactly (doubles as
  /// hex-float literals).
  void (*encode)(const Query& query, std::string* out);
};

/// A resolved graph operand of a query.
struct QueryOperand {
  /// The graph.
  const Hypergraph* graph = nullptr;
  /// An engine over `graph`; read only by kinds with `needs_engine`.
  const MotifEngine* engine = nullptr;
  /// GraphFingerprint(*graph); read only for cache keys.
  uint64_t fingerprint = 0;
};

/// One row of the query table.
struct QuerySpec {
  /// The kind this row answers.
  QueryKind kind;
  /// Request verb and CLI command.
  std::string_view verb;
  /// Graph operands after the verb: 1 or 2.
  size_t operands;
  /// The body is computed through QueryOperand::engine.
  bool needs_engine;
  /// Message of the InvalidArgument answer when operands are missing.
  std::string_view usage;
  /// Appended to the `unknown <verb> option` error.
  std::string_view unknown_hint;
  /// The keys the kind accepts, in encoding order.
  std::span<const QueryOption> options;
  /// Appends the canonical options to the cache key `<verb> fp=<hex>...`:
  /// only what can change the body, each in one spelling.
  void (*key)(const Query& query, const QueryOperand* operands,
              std::string* key);
  /// Computes and renders the body.
  Result<std::string> (*compute)(const Query& query,
                                 const QueryOperand* operands);
  /// Composite kinds (similarity) only: the body is combined from one
  /// body of `part` per operand, each cached under the part's own key.
  /// The part's options, key and compute then stand for this row's.
  const QuerySpec* part;
  /// Combines the part bodies (one per operand) into this kind's body.
  Result<std::string> (*combine)(const std::string* part_bodies);
};

/// A parsed query: the kind, its operand names and its options. Every
/// kind's option struct is present; a kind reads only its own, and the
/// others keep their defaults.
struct Query {
  /// A query of `spec`'s kind with the wire's default options.
  explicit Query(const QuerySpec& spec) : spec(&spec) {}

  /// The kind's table row.
  const QuerySpec* spec;
  /// Operand names as the request spells them (registry names on the
  /// wire, file paths offline).
  std::array<std::string_view, 2> graphs{};
  /// count; per-edge reads only num_threads.
  EngineOptions engine;
  /// profile and similarity.
  CharacteristicProfileOptions profile;
  /// predict.
  PredictionTaskOptions predict;
};

/// The row whose verb is `verb`, or nullptr for anything else (load,
/// stats, shutdown and unknown verbs).
const QuerySpec* FindQuerySpec(std::string_view verb);

/// The option of `spec` spelled `flag` on the command line, or nullptr
/// when the kind takes no such flag.
const QueryOption* FindQueryFlag(const QuerySpec& spec, std::string_view flag);

/// Parses `key=value` tokens into `query`. A key the kind does not take
/// is InvalidArgument; a repeated key keeps its last value.
Status ParseQueryOptions(std::span<const std::string_view> tokens,
                         Query* query);

/// The request line of `query`: verb, operand names, then every option
/// of the kind as `key=value`. Parsing it yields `query` again.
std::string EncodeQuery(const Query& query);

/// The cache key of `spec`'s body for `query` over `operands`:
/// `<verb> fp=<hex16>[ fp=<hex16>]` plus the row's canonical options.
/// `spec` is a row with a body of its own (for similarity, its part).
std::string QueryCacheKey(const QuerySpec& spec, const Query& query,
                          const QueryOperand* operands);

/// A query body and whether it came from the cache.
struct QueryAnswer {
  /// The rendered body (the response after its header line).
  std::string body;
  /// True when every body it is made of was a cache hit.
  bool cached = false;
};

/// Answers `query` over its `spec->operands` resolved operands. Each
/// body is looked up in `cache` under its QueryCacheKey, computed on a
/// miss and put back. With no cache (the offline CLI) every body is
/// computed. With one (MotifServer), a computed body that would not fit
/// one protocol frame is answered with OutOfRange and not cached.
Result<QueryAnswer> AnswerQuery(const Query& query,
                                const QueryOperand* operands,
                                BudgetedLruCache* cache = nullptr);

}  // namespace mochy

#endif  // MOCHY_SERVE_QUERY_H_
