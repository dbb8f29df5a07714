#include "serve/query.h"

#include <cstdio>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "profile/similarity.h"
#include "serve/protocol.h"
#include "serve/render.h"

namespace mochy {

namespace {

// ------------------------------------------------------------ options --

// Value parsers, one per kind of value. Each takes the option's label
// (the wire key or the CLI flag) for its error messages.

Result<uint64_t> Uint(std::string_view value, std::string_view) {
  return ParseUint64(value);
}

template <uint64_t kMin, uint64_t kMax>
Result<uint64_t> InRange(std::string_view value, std::string_view label) {
  return ParseUint64InRange(value, kMin, kMax, label);
}

Result<double> Finite(std::string_view value, std::string_view) {
  return ParseDouble(value);
}

Result<double> Fraction(std::string_view value, std::string_view label) {
  MOCHY_ASSIGN_OR_RETURN(const double fraction, ParseDouble(value));
  if (!(fraction > 0.0 && fraction <= 1.0)) {
    return Status::InvalidArgument(std::string(label) +
                                   " must be in (0, 1], got '" +
                                   std::string(value) + "'");
  }
  return fraction;
}

Result<Algorithm> AlgorithmValue(std::string_view value, std::string_view) {
  return ParseAlgorithm(value);
}

Result<NullModel> NullModelValue(std::string_view value, std::string_view) {
  if (value == "chung-lu") return NullModel::kChungLu;
  if (value == "perturb") return NullModel::kPerturb;
  return Status::InvalidArgument("unknown null model '" + std::string(value) +
                                 "' (want chung-lu|perturb)");
}

/// Appends `value` in the spelling its parser reads back exactly:
/// doubles as hex-float literals, enums by name, integers in decimal.
template <typename T>
void AppendValue(T value, std::string* out) {
  if constexpr (std::is_floating_point_v<T>) {
    *out += EncodeDouble(value);
  } else if constexpr (std::is_same_v<T, Algorithm>) {
    *out += AlgorithmName(value);
  } else if constexpr (std::is_same_v<T, NullModel>) {
    *out += value == NullModel::kChungLu ? "chung-lu" : "perturb";
  } else {
    *out += std::to_string(static_cast<uint64_t>(value));
  }
}

/// The option stored in member kField of the Query member kGroup
/// (engine, profile or predict), read by kParse.
template <auto kGroup, auto kField, auto kParse>
constexpr QueryOption Option(std::string_view key, std::string_view flag) {
  return {key, flag,
          [](std::string_view value, std::string_view label, Query* query) {
            auto& field = (query->*kGroup).*kField;
            MOCHY_ASSIGN_OR_RETURN(const auto parsed, kParse(value, label));
            field = static_cast<std::remove_reference_t<decltype(field)>>(
                parsed);
            return Status::OK();
          },
          [](const Query& query, std::string* out) {
            AppendValue((query.*kGroup).*kField, out);
          }};
}

constexpr auto kEngine = &Query::engine;
constexpr auto kProfile = &Query::profile;
constexpr auto kPredict = &Query::predict;
using Profile = CharacteristicProfileOptions;

constexpr QueryOption kEngineThreads =
    Option<kEngine, &EngineOptions::num_threads, InRange<0, 4096>>(
        "threads", "--threads");

constexpr QueryOption kCountOptions[] = {
    Option<kEngine, &EngineOptions::algorithm, AlgorithmValue>("algorithm",
                                                               "--algorithm"),
    Option<kEngine, &EngineOptions::num_samples, Uint>("samples", "--samples"),
    Option<kEngine, &EngineOptions::sampling_ratio, ParsePositiveDouble>(
        "ratio", "--ratio"),
    Option<kEngine, &EngineOptions::seed, Uint>("seed", "--seed"),
    kEngineThreads,
    Option<kEngine, &EngineOptions::estimate_variance, InRange<0, 1>>(
        "variance", ""),
};

// Shared by profile and similarity, in cache-key order. ratio < 0 means
// exact counting, so any finite value is legal.
constexpr QueryOption kProfileOptions[] = {
    Option<kProfile, &Profile::num_random_graphs, InRange<1, 100000>>(
        "random", "--random"),
    Option<kProfile, &Profile::seed, Uint>("seed", "--seed"),
    Option<kProfile, &Profile::sample_ratio, Finite>("ratio", "--sample-ratio"),
    Option<kProfile, &Profile::epsilon, Finite>("epsilon", "--epsilon"),
    Option<kProfile, &Profile::null_model, NullModelValue>("null", "--null"),
    Option<kProfile, &Profile::perturb_fraction, Finite>("perturb", ""),
    Option<kProfile, &Profile::num_threads, InRange<0, 4096>>("threads",
                                                              "--threads"),
};

constexpr QueryOption kPerEdgeOptions[] = {kEngineThreads};

constexpr QueryOption kPredictOptions[] = {
    Option<kPredict, &PredictionTaskOptions::replace_fraction, Fraction>(
        "replace", "--replace"),
    Option<kPredict, &PredictionTaskOptions::seed, Uint>("seed", "--seed"),
    Option<kPredict, &PredictionTaskOptions::num_threads, InRange<0, 4096>>(
        "threads", "--threads"),
};

/// The row that owns `spec`'s options, key and compute: its part for a
/// composite kind, else itself.
const QuerySpec& Owner(const QuerySpec& spec) {
  return spec.part != nullptr ? *spec.part : spec;
}

/// Appends " key=value" for each option of the query's kind, in table
/// order; the thread count only when `with_threads` (it never changes a
/// body, so cache keys leave it out).
void AppendOptions(const Query& query, bool with_threads, std::string* out) {
  for (const QueryOption& option : Owner(*query.spec).options) {
    if (!with_threads && option.key == "threads") continue;
    *out += ' ';
    *out += option.key;
    *out += '=';
    option.encode(query, out);
  }
}

// --------------------------------------------------------------- keys --

/// count: the engine's canonical form (MotifEngine::Canonicalize), in
/// which kAuto and ratio-derived sample counts are resolved and exact
/// counting drops every sampling knob.
void CountKey(const Query& query, const QueryOperand* operands,
              std::string* key) {
  const EngineOptions canonical =
      operands[0].engine->Canonicalize(query.engine);
  if (canonical.algorithm == Algorithm::kExact) {
    *key += " alg=exact";
    return;
  }
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                " alg=%s samples=%llu seed=%llu variance=%d",
                AlgorithmName(canonical.algorithm),
                static_cast<unsigned long long>(canonical.num_samples),
                static_cast<unsigned long long>(canonical.seed),
                canonical.estimate_variance ? 1 : 0);
  *key += buffer;
}

/// Kinds whose encoded options are already canonical: every spelling of
/// a double encodes to one hex-float literal.
void EncodedOptionsKey(const Query& query, const QueryOperand*,
                       std::string* key) {
  AppendOptions(query, /*with_threads=*/false, key);
}

// ------------------------------------------------------------- bodies --

Result<std::string> ComputeCount(const Query& query,
                                 const QueryOperand* operands) {
  // Run the canonical options (results are identical by the
  // Canonicalize() contract) with the requested thread budget (purely a
  // scheduling knob).
  const MotifEngine& engine = *operands[0].engine;
  EngineOptions exec = engine.Canonicalize(query.engine);
  exec.num_threads = query.engine.num_threads;
  MOCHY_ASSIGN_OR_RETURN(const EngineResult result, engine.Count(exec));
  return "stats " + result.stats.ToString() + "\ncounts " +
         EncodeCounts(result.counts) + "\n";
}

Result<std::string> ComputeProfile(const Query& query,
                                   const QueryOperand* operands) {
  MOCHY_ASSIGN_OR_RETURN(
      const CharacteristicProfile profile,
      ComputeCharacteristicProfile(*operands[0].graph, query.profile));
  return "batch " + profile.batch.ToString() + "\nreal " +
         EncodeCounts(profile.real_counts) + "\nrandom " +
         EncodeCounts(profile.random_mean) + "\nepsilon " +
         EncodeDouble(query.profile.epsilon) + "\n";
}

/// similarity: decodes real/random/epsilon back out of the two profile
/// bodies and correlates their CPs with the same pure functions the
/// offline pipeline uses.
Result<std::string> CombineSimilarity(const std::string* profiles) {
  std::vector<double> cps[2];
  for (int i = 0; i < 2; ++i) {
    MotifCounts real, random;
    double epsilon = 1.0;
    for (const std::string_view line : SplitLines(profiles[i])) {
      if (line.rfind("real ", 0) == 0) {
        MOCHY_ASSIGN_OR_RETURN(real, DecodeCounts(line.substr(5)));
      } else if (line.rfind("random ", 0) == 0) {
        MOCHY_ASSIGN_OR_RETURN(random, DecodeCounts(line.substr(7)));
      } else if (line.rfind("epsilon ", 0) == 0) {
        MOCHY_ASSIGN_OR_RETURN(epsilon, DecodeDouble(line.substr(8)));
      }
    }
    const ProfileVector cp =
        NormalizeProfile(ComputeSignificance(real, random, epsilon));
    cps[i].assign(cp.begin(), cp.end());
  }
  return "pearson " + EncodeDouble(PearsonCorrelation(cps[0], cps[1])) + "\n";
}

Result<std::string> ComputePerEdge(const Query& query,
                                   const QueryOperand* operands) {
  MOCHY_ASSIGN_OR_RETURN(const PerEdgeResult result,
                         operands[0].engine->CountPerEdge(query.engine));
  return RenderPerEdgeBody(result.rows);
}

Result<std::string> ComputePredict(const Query& query,
                                   const QueryOperand* operands) {
  return RenderPredictBody(*operands[0].graph, *operands[1].graph,
                           query.predict);
}

// -------------------------------------------------------------- table --

// Rows are in QueryKind order.
const QuerySpec kQueries[5] = {
    {QueryKind::kCount, "count", 1, true,
     "usage: count <name> [key=value ...]", "", kCountOptions, CountKey,
     ComputeCount, nullptr, nullptr},
    {QueryKind::kProfile, "profile", 1, false,
     "usage: profile <name> [key=value ...]", "", kProfileOptions,
     EncodedOptionsKey, ComputeProfile, nullptr, nullptr},
    // The per-graph profile bodies carry the cost and are shared with
    // plain profile queries through the same cache entries; the
    // correlation is recomputed from them each time.
    {QueryKind::kSimilarity, "similarity", 2, false,
     "usage: similarity <name1> <name2> [key=value ...]", "", {}, nullptr,
     nullptr, &kQueries[1], CombineSimilarity},
    // Exact and thread-count-invariant, so the key is the graph alone.
    {QueryKind::kPerEdge, "per-edge", 1, true,
     "usage: per-edge <name> [threads=N]",
     " (only threads=N; per-edge counts are always exact)", kPerEdgeOptions,
     EncodedOptionsKey, ComputePerEdge, nullptr, nullptr},
    {QueryKind::kPredict, "predict", 2, false,
     "usage: predict <history> <candidates> [replace=R] [seed=S] "
     "[threads=N]",
     " (want replace=R seed=S threads=N)", kPredictOptions, EncodedOptionsKey,
     ComputePredict, nullptr, nullptr},
};

/// One body of `spec`: from `cache` when it holds the key, else computed
/// (and, with a cache, put back).
Result<QueryAnswer> GetOrCompute(const QuerySpec& spec, const Query& query,
                                 const QueryOperand* operands,
                                 BudgetedLruCache* cache) {
  std::string key;
  if (cache != nullptr) {
    key = QueryCacheKey(spec, query, operands);
    if (std::optional<std::string> hit = cache->Get(key)) {
      return QueryAnswer{std::move(*hit), true};
    }
  }
  MOCHY_ASSIGN_OR_RETURN(std::string body, spec.compute(query, operands));
  if (cache != nullptr) {
    // A served body travels in one frame with its header line.
    if (body.size() + 256 > kMaxFrameBytes) {
      return Status::OutOfRange(
          std::string(spec.verb) + " body of " + std::to_string(body.size()) +
          " bytes exceeds the frame cap (" + std::to_string(kMaxFrameBytes) +
          "); run the offline CLI for graphs this large");
    }
    cache->Put(key, body);
  }
  return QueryAnswer{std::move(body), false};
}

}  // namespace

const QuerySpec* FindQuerySpec(std::string_view verb) {
  for (const QuerySpec& spec : kQueries) {
    if (spec.verb == verb) return &spec;
  }
  return nullptr;
}

const QueryOption* FindQueryFlag(const QuerySpec& spec,
                                 std::string_view flag) {
  for (const QueryOption& option : Owner(spec).options) {
    if (!option.flag.empty() && option.flag == flag) return &option;
  }
  return nullptr;
}

Status ParseQueryOptions(std::span<const std::string_view> tokens,
                         Query* query) {
  const QuerySpec& owner = Owner(*query->spec);
  for (const std::string_view token : tokens) {
    const size_t eq = token.find('=');
    const QueryOption* option = nullptr;
    if (eq != std::string_view::npos && eq > 0) {
      for (const QueryOption& candidate : owner.options) {
        if (candidate.key == token.substr(0, eq)) option = &candidate;
      }
    }
    if (option == nullptr) {
      return Status::InvalidArgument(
          "unknown " + std::string(owner.verb) + " option '" +
          std::string(token) + "'" + std::string(owner.unknown_hint));
    }
    MOCHY_RETURN_IF_ERROR(
        option->parse(token.substr(eq + 1), option->key, query));
  }
  return Status::OK();
}

std::string EncodeQuery(const Query& query) {
  std::string line(query.spec->verb);
  for (size_t i = 0; i < query.spec->operands; ++i) {
    line += ' ';
    line += query.graphs[i];
  }
  AppendOptions(query, /*with_threads=*/true, &line);
  return line;
}

std::string QueryCacheKey(const QuerySpec& spec, const Query& query,
                          const QueryOperand* operands) {
  std::string key;
  key.reserve(192);  // longer than any key: one allocation per key
  key += spec.verb;
  for (size_t i = 0; i < spec.operands; ++i) {
    char fingerprint[24];
    std::snprintf(fingerprint, sizeof(fingerprint), " fp=%016llx",
                  static_cast<unsigned long long>(operands[i].fingerprint));
    key += fingerprint;
  }
  spec.key(query, operands, &key);
  return key;
}

Result<QueryAnswer> AnswerQuery(const Query& query,
                                const QueryOperand* operands,
                                BudgetedLruCache* cache) {
  const QuerySpec& spec = *query.spec;
  if (spec.part == nullptr) {
    return GetOrCompute(spec, query, operands, cache);
  }
  std::string parts[2];
  bool cached = true;
  for (size_t i = 0; i < spec.operands; ++i) {
    MOCHY_ASSIGN_OR_RETURN(
        QueryAnswer part, GetOrCompute(*spec.part, query, &operands[i], cache));
    parts[i] = std::move(part.body);
    cached = cached && part.cached;
  }
  MOCHY_ASSIGN_OR_RETURN(std::string body, spec.combine(parts));
  return QueryAnswer{std::move(body), cached};
}

}  // namespace mochy
