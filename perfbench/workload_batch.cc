// batch: the characteristic profile of a contact-domain graph against
// Chung-Lu nulls, plus the Table-4 hyperedge-prediction pipeline.
//
// BatchRunner, Chung-Lu generation, many small projection builds and the
// ml feature extraction carry this workload. It uses the batch layer two
// ways: a few graph-sized items for the profile against thousands of tiny
// per-candidate items for the prediction features. One pass (pass_s) is
// one profile plus one prediction pipeline; the per-layer run reports
// each part's time.
#include <cmath>
#include <memory>
#include <vector>

#include "bench.h"
#include "gen/generators.h"
#include "hypergraph/io.h"
#include "ml/decision_tree.h"
#include "ml/features.h"
#include "ml/knn.h"
#include "ml/logistic.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "profile/significance.h"
#include "random/chung_lu.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Input sizing: one round (profile + prediction) takes about 3.7 s on the
// 4-core dev host, so a 20 s run measures both five times.
constexpr double kContactScale = 0.8;
constexpr uint64_t kContactSeed = 11;
// With the real graph, 8 graph-sized items: two full waves on 4 workers.
// At 6 nulls the second wave left a worker idle, and the profile moved with
// which items shared it.
constexpr int kNullGraphs = 7;
constexpr double kHistoryScale = 0.3;
constexpr uint64_t kHistorySeed = 100;
// The pipelines' own seeds (null draws, fake candidates) are fixed; the
// run seed relabels the inputs (bench.h DegreeClassPermutation).
constexpr uint64_t kNullSeed = 3;
constexpr uint64_t kFakeSeed = 4;
// Set-up (the three text loads, about 1 ms) is repeated before the first
// round and again after every round: on the VM dev host the medians of
// back-to-back blocks of 100 loads differed by 30% within one process, so
// the repeats are spread over the whole run.
constexpr int kSetupRepeats = 25;
constexpr int kMinRounds = 3;
// The fixed Table-4 evaluation protocol (serve/render.cc).
constexpr double kTestFraction = 0.3;
constexpr uint64_t kSplitSeed = 17;

const char* const kContactFile = "/contact.txt";
const char* const kHistoryFile = "/history.txt";
const char* const kCandidatesFile = "/candidates.txt";

struct Inputs {
  mochy::Hypergraph contact;
  mochy::Hypergraph history;
  std::vector<std::vector<mochy::NodeId>> candidates;
};

mochy::Hypergraph LoadText(const std::string& path) {
  ScopedSpan span("hypergraph.load_text");
  auto graph = mochy::LoadHypergraph(path);
  CheckOk(graph.status(), "loading " + path);
  return std::move(graph).value();
}

Inputs Load(const std::string& dir) {
  Inputs inputs;
  inputs.contact = LoadText(dir + kContactFile);
  inputs.history = LoadText(dir + kHistoryFile);
  const mochy::Hypergraph candidates = LoadText(dir + kCandidatesFile);
  for (mochy::EdgeId e = 0; e < candidates.num_edges(); ++e) {
    const auto span = candidates.edge(e);
    if (span.size() >= 2) inputs.candidates.emplace_back(span.begin(), span.end());
  }
  return inputs;
}

struct RoundResult {
  double profile_s = 0.0;
  double predict_s = 0.0;
  double features_s = 0.0;
  double train_s = 0.0;
  mochy::BatchStats batch;
};

std::unique_ptr<mochy::Classifier> MakeClassifier(int which) {
  switch (which) {
    case 0: return std::make_unique<mochy::LogisticRegression>();
    case 1: return std::make_unique<mochy::RandomForest>();
    case 2: return std::make_unique<mochy::DecisionTree>();
    case 3: return std::make_unique<mochy::KNearestNeighbors>();
    default: return std::make_unique<mochy::MlpClassifier>();
  }
}

RoundResult Round(const Inputs& inputs, Report* report) {
  RoundResult out;
  {
    ScopedSpan span("profile.characteristic_profile");
    mochy::CharacteristicProfileOptions options;
    options.num_random_graphs = kNullGraphs;
    options.seed = kNullSeed;
    options.num_threads = kThreads;
    auto profile = mochy::ComputeCharacteristicProfile(inputs.contact, options);
    out.profile_s = span.End();
    report->Attempt(profile.status(), "characteristic profile");
    if (profile.ok()) {
      out.batch = profile.value().batch;
      double norm = 0.0;
      for (const double v : profile.value().cp) norm += v * v;
      report->Check(std::abs(std::sqrt(norm) - 1.0) < 1e-9,
                    "characteristic profile has unit norm");
    }
  }

  ScopedSpan predict("ml.predict");
  mochy::PredictionTask task;
  {
    ScopedSpan span("ml.build_prediction_task");
    mochy::PredictionTaskOptions options;
    options.seed = kFakeSeed;
    options.num_threads = kThreads;
    auto built = mochy::BuildHyperedgePredictionTask(
        inputs.history, inputs.candidates, options);
    out.features_s = span.End();
    report->Attempt(built.status(), "prediction task");
    if (built.ok()) task = std::move(built).value();
  }
  {
    ScopedSpan span("ml.train_test");
    for (const mochy::Dataset* data : {&task.hm26, &task.hm7, &task.hc}) {
      for (int which = 0; which < 5; ++which) {
        mochy::Dataset train, test;
        mochy::Status status = mochy::TrainTestSplit(*data, kTestFraction,
                                                     kSplitSeed, &train, &test);
        auto classifier = MakeClassifier(which);
        if (status.ok()) status = classifier->Fit(train);
        report->Attempt(status, "classifier train");
        if (!status.ok()) continue;
        const std::vector<double> scores = classifier->PredictAll(test);
        const double auc = mochy::AucScore(test.labels, scores);
        const double accuracy = mochy::Accuracy(test.labels, scores);
        report->Check(auc >= 0.0 && auc <= 1.0 && accuracy >= 0.0 &&
                          accuracy <= 1.0,
                      "classifier accuracy and AUC lie in [0, 1]");
      }
    }
    out.train_s = span.End();
  }
  out.predict_s = predict.End();
  report->Check(task.hm26.size() == 2 * inputs.candidates.size(),
                "one real and one fake row per candidate");
  return out;
}

}  // namespace

mochy::Status GenerateBatch(uint64_t seed, double /*seconds*/,
                            const std::string& dir) {
  mochy::GeneratorConfig contact_config =
      mochy::DefaultConfig(mochy::Domain::kContact, kContactScale);
  contact_config.seed = kContactSeed;
  MOCHY_ASSIGN_OR_RETURN(mochy::Hypergraph contact,
                         mochy::GenerateDomainHypergraph(contact_config));
  MOCHY_ASSIGN_OR_RETURN(contact, Relabel(contact, DeriveSeed(seed, 3)));
  MOCHY_RETURN_IF_ERROR(mochy::SaveHypergraph(contact, dir + kContactFile));

  // History = an earlier co-authorship period; candidates = a later one
  // over the same author universe (examples/hyperedge_prediction.cpp).
  mochy::GeneratorConfig history_config =
      mochy::DefaultConfig(mochy::Domain::kCoauthorship, kHistoryScale);
  history_config.seed = kHistorySeed;
  mochy::GeneratorConfig future_config = history_config;
  future_config.seed = kHistorySeed + 1;
  future_config.num_edges = history_config.num_edges / 3;
  MOCHY_ASSIGN_OR_RETURN(mochy::Hypergraph history,
                         mochy::GenerateDomainHypergraph(history_config));
  MOCHY_ASSIGN_OR_RETURN(mochy::Hypergraph future,
                         mochy::GenerateDomainHypergraph(future_config));
  const uint64_t relabel = DeriveSeed(seed, 4);
  // One permutation over the shared author universe, by summed degree.
  const size_t universe = std::max(history.num_nodes(), future.num_nodes());
  std::vector<size_t> degrees = Degrees(history, universe);
  const std::vector<size_t> future_degrees = Degrees(future, universe);
  for (size_t v = 0; v < universe; ++v) degrees[v] += future_degrees[v];
  const std::vector<mochy::NodeId> perm =
      DegreeClassPermutation(degrees, relabel);
  MOCHY_ASSIGN_OR_RETURN(history, Relabel(history, perm));
  MOCHY_ASSIGN_OR_RETURN(future, Relabel(future, perm));
  MOCHY_RETURN_IF_ERROR(mochy::SaveHypergraph(history, dir + kHistoryFile));
  return mochy::SaveHypergraph(future, dir + kCandidatesFile);
}

void RunBatch(const RunOptions& run, Report* report) {
  SetTracing(run.trace);
  std::vector<double> setup_s;
  Inputs inputs;
  auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      inputs = Inputs();
      const Clock::time_point start = Clock::now();
      inputs = Load(run.dir);
      setup_s.push_back(SecondsSince(start));
    }
  };
  set_up();
  report->Info("contact_edges", static_cast<double>(inputs.contact.num_edges()));
  report->Info("history_edges", static_cast<double>(inputs.history.num_edges()));
  report->Info("candidates", static_cast<double>(inputs.candidates.size()));
  report->Info("null_graphs", static_cast<double>(kNullGraphs));

  Round(inputs, report);  // warm-up

  std::vector<double> pass_s, profile_s, predict_s, features_s, train_s,
      busy_s, utilization, traced_round_s, plain_round_s;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < kMinRounds || SecondsSince(start) < run.seconds;
       ++round) {
    const bool traced = run.trace && round % 2 == 1;
    SetTracing(traced);
    const Clock::time_point round_start = Clock::now();
    const RoundResult r = Round(inputs, report);
    (traced ? traced_round_s : plain_round_s).push_back(SecondsSince(round_start));
    pass_s.push_back(r.profile_s + r.predict_s);
    profile_s.push_back(r.profile_s);
    predict_s.push_back(r.predict_s);
    features_s.push_back(r.features_s);
    train_s.push_back(r.train_s);
    busy_s.push_back(r.batch.busy_seconds);
    utilization.push_back(r.batch.pool_utilization);
    set_up();
  }
  SetTracing(run.trace);
  report->Info("rounds", static_cast<double>(profile_s.size()));

  if (!run.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("pass_s", Median(pass_s), "s");
    return;
  }

  // Probes for the layers the profile pipeline hides inside one call:
  // the null-model draws and the significance arithmetic.
  std::vector<double> chung_lu_s;
  for (int i = 0; i < kNullGraphs; ++i) {
    ScopedSpan span("random.chung_lu");
    mochy::ChungLuOptions options;
    options.seed = kNullSeed + i;
    auto null_graph = mochy::GenerateChungLu(inputs.contact, options);
    chung_lu_s.push_back(span.End());
    report->Attempt(null_graph.status(), "Chung-Lu draw");
  }
  double significance_s = 0.0;
  {
    mochy::MotifCounts real, random;
    for (int t = 1; t <= mochy::kNumHMotifs; ++t) {
      real[t] = 1000.0 * t;
      random[t] = 900.0 * t + 7.0;
    }
    constexpr int kRepeats = 10'000;
    ScopedSpan span("profile.significance");
    double sink = 0.0;
    for (int i = 0; i < kRepeats; ++i) {
      real[1] += 1.0;
      sink += mochy::NormalizeProfile(mochy::ComputeSignificance(real, random))[0];
    }
    significance_s = span.End() / kRepeats;
    report->Check(std::isfinite(sink), "significance probe is finite");
  }

  double chung_lu_total = 0.0;
  for (const double s : chung_lu_s) chung_lu_total += s;
  report->Metric("profile.cp_s", Median(profile_s), "s");
  report->Metric("ml.predict_s", Median(predict_s), "s");
  report->Metric("hypergraph.load_s", Median(setup_s), "s");
  report->Metric("motif.batch.pool_utilization", Median(utilization), "ratio");
  report->Metric("motif.batch.busy_s", Median(busy_s), "s");
  report->Metric("random.chung_lu_s", chung_lu_total, "s");
  report->Metric("profile.significance_s", significance_s, "s");
  report->Metric("ml.features_s", Median(features_s), "s");
  report->Metric("ml.train_s", Median(train_s), "s");
  report->Metric("ml.candidates_per_s",
                 2.0 * static_cast<double>(inputs.candidates.size()) /
                     Median(features_s),
                 "1/s");
  report->Metric("trace.overhead_pct",
                 100.0 * (Median(traced_round_s) / Median(plain_round_s) - 1.0),
                 "%");
}

}  // namespace perfbench
