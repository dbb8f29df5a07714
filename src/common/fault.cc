#include "common/fault.h"

#include "common/hash.h"

namespace mochy {

std::atomic<bool> FaultInjector::armed_{false};

FaultAction FaultError(int err) {
  FaultAction action;
  action.kind = FaultAction::Kind::kError;
  action.fault_errno = err;
  return action;
}

FaultAction FaultShortIo(size_t max_bytes) {
  FaultAction action;
  action.kind = FaultAction::Kind::kShortIo;
  action.max_bytes = max_bytes == 0 ? 1 : max_bytes;
  return action;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::Arm(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = std::move(plan);
  points_.clear();
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  plan_ = FaultPlan{};
}

namespace {

/// The background-rate coin for hit `ordinal` of `point`: a uniform
/// double in [0, 1) derived purely from (seed, point, ordinal), so the
/// decision for a given hit is the same in every run with that seed.
double RateCoin(uint64_t seed, std::string_view point, uint64_t ordinal) {
  uint64_t h =
      Fnv1a64(point.data(), point.size(), 0xcbf29ce484222325ULL ^ Mix64(seed));
  h = Mix64(h ^ Mix64(ordinal + 0x9e3779b97f4a7c15ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultAction FaultInjector::OnPoint(std::string_view point) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Armed may have flipped off between the macro's check and this call;
  // a disarmed plan has no rules and rate 0, so the hit is a no-op
  // besides the counter.
  PointState& state = points_[std::string(point)];
  const uint64_t ordinal = ++state.hits;

  FaultAction action;
  for (const FaultRule& rule : plan_.rules) {
    if (rule.point != point) continue;
    if (rule.nth != 0 && ordinal == rule.nth) {
      action = rule.action;
      break;
    }
    if (rule.every != 0 && ordinal % rule.every == 0) {
      action = rule.action;
      break;
    }
  }
  if (action.none() && plan_.rate > 0.0 &&
      RateCoin(plan_.seed, point, ordinal) < plan_.rate) {
    action = plan_.rate_action;
  }
  if (!action.none()) ++state.fired;
  return action;
}

uint64_t FaultInjector::hits(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(std::string(point));
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::fired(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(std::string(point));
  return it == points_.end() ? 0 : it->second.fired;
}

uint64_t FaultInjector::total_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [name, state] : points_) total += state.fired;
  return total;
}

}  // namespace mochy
