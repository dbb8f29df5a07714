#include "motif/batch.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <optional>
#include <utility>

#include "common/parallel.h"
#include "common/timer.h"

namespace mochy {

namespace {

// Runs one item start-to-finish on the calling thread: generate the graph
// (when the item owns a generator), build its projection, count. The
// engine and any generated graph live only for the duration of the call,
// so a running batch holds at most one projection per worker.
BatchItemResult RunItem(const BatchItem& item, size_t num_threads) {
  BatchItemResult out;
  out.label = item.label;

  std::optional<Hypergraph> owned;
  const Hypergraph* graph = item.graph;
  if (item.make) {
    Timer generate;
    Result<Hypergraph> made = item.make();
    out.generate_seconds = generate.Seconds();
    if (!made.ok()) {
      out.status = made.status();
      return out;
    }
    owned.emplace(std::move(made).value());
    graph = &*owned;
  }
  if (graph == nullptr) {
    out.status =
        Status::InvalidArgument("batch item has neither graph nor generator");
    return out;
  }

  // The batch scheduler owns the thread budget (see batch.h); whatever the
  // caller put in the item's num_threads is replaced here. Projection
  // policy and memory budget pass through per item, so one batch can mix
  // materialized and memory-bounded lazy items.
  EngineOptions options = item.options;
  options.num_threads = num_threads;

  Timer build;
  auto engine = MotifEngine::Create(*graph, options);
  out.projection_seconds = build.Seconds();
  if (!engine.ok()) {
    out.status = engine.status();
    return out;
  }

  auto counted = engine.value().Count(options);
  if (!counted.ok()) {
    out.status = counted.status();
    return out;
  }
  out.counts = counted.value().counts;
  out.stats = counted.value().stats;
  return out;
}

// Processing order: estimated-longest first, so one heavy trailing item
// cannot straggle an otherwise drained queue (classic LPT list
// scheduling). Generated graphs have unknown cost until they exist; they
// sort first, which is right for null models sized like their source.
std::vector<size_t> ScheduleOrder(const std::vector<BatchItem>& items,
                                  bool longest_first) {
  std::vector<size_t> order(items.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (!longest_first) return order;
  auto cost = [&](size_t i) -> uint64_t {
    if (items[i].make) return UINT64_MAX;
    return items[i].graph == nullptr ? 0 : items[i].graph->num_pins();
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return cost(a) > cost(b); });
  return order;
}

}  // namespace

std::string BatchStats::ToString() const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "items=%zu failed=%zu threads=%zu elapsed=%.3fs busy=%.3fs "
                "utilization=%.2f",
                num_items, num_failed, num_threads, elapsed_seconds,
                busy_seconds, pool_utilization);
  return buffer;
}

Status BatchResult::first_error() const {
  for (const BatchItemResult& item : items) {
    if (!item.status.ok()) return item.status;
  }
  return Status::OK();
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

size_t BatchRunner::Add(const Hypergraph& graph, EngineOptions options,
                        std::string label) {
  BatchItem item;
  item.graph = &graph;
  item.options = options;
  item.label = std::move(label);
  items_.push_back(std::move(item));
  return items_.size() - 1;
}

size_t BatchRunner::AddGenerated(std::function<Result<Hypergraph>()> make,
                                 EngineOptions options, std::string label) {
  BatchItem item;
  item.make = std::move(make);
  item.options = options;
  item.label = std::move(label);
  items_.push_back(std::move(item));
  return items_.size() - 1;
}

BatchResult BatchRunner::Run() const {
  BatchResult out;
  const size_t n = items_.size();
  out.items.resize(n);
  out.stats.num_items = n;

  const size_t budget =
      options_.num_threads == 0 ? DefaultThreadCount() : options_.num_threads;
  // Two regimes. With at least as many items as workers, parallelism
  // across items wins: each worker drains the queue, counting its item
  // inline, and projection builds overlap with other items' counting. With
  // few items and many workers, per-item parallelism is the only way to
  // keep the pool busy, so items run sequentially with the full budget.
  const size_t workers = std::min(budget, n);
  const bool item_parallel = workers > 1 && budget < 2 * n;
  out.stats.num_threads = item_parallel ? workers : 1;

  Timer wall;
  if (item_parallel) {
    const std::vector<size_t> order =
        ScheduleOrder(items_, options_.longest_first);
    std::atomic<size_t> cursor{0};
    ParallelWorkers(workers, [&](size_t) {
      while (true) {
        const size_t slot = cursor.fetch_add(1, std::memory_order_relaxed);
        if (slot >= n) return;
        const size_t index = order[slot];
        out.items[index] = RunItem(items_[index], /*num_threads=*/1);
      }
    });
  } else {
    for (size_t i = 0; i < n; ++i) {
      out.items[i] = RunItem(items_[i], budget);
    }
  }
  out.stats.elapsed_seconds = wall.Seconds();

  for (const BatchItemResult& item : out.items) {
    if (!item.status.ok()) ++out.stats.num_failed;
    out.stats.busy_seconds += item.generate_seconds +
                              item.projection_seconds +
                              item.stats.elapsed_seconds;
  }
  if (out.stats.elapsed_seconds > 0.0) {
    out.stats.pool_utilization =
        out.stats.busy_seconds /
        (out.stats.elapsed_seconds * static_cast<double>(out.stats.num_threads));
  }
  return out;
}

BatchResult CountBatch(const std::vector<const Hypergraph*>& graphs,
                       const EngineOptions& options,
                       const BatchOptions& batch_options) {
  BatchRunner runner(batch_options);
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (graphs[i] != nullptr) {
      runner.Add(*graphs[i], options, "graph-" + std::to_string(i));
    } else {
      // Deliberately enqueue the broken item so result indices stay
      // aligned with the input; it reports InvalidArgument.
      runner.AddGenerated(
          []() -> Result<Hypergraph> {
            return Status::InvalidArgument("null graph pointer in CountBatch");
          },
          options, "graph-" + std::to_string(i));
    }
  }
  return runner.Run();
}

}  // namespace mochy
