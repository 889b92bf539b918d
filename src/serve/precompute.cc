#include "serve/precompute.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "serve/engine.h"
#include "util/check.h"

namespace pafs::serve {

namespace {

void RecordGcDepth(size_t depth) {
  if (!obs::Enabled()) return;
  static obs::Histogram& h = obs::GetHistogram("gc.pool.depth");
  h.Record(static_cast<double>(depth) + 1e-9);  // Keep depth 0 recordable.
}

void CountGcTake(bool hit) {
  if (!obs::Enabled()) return;
  static obs::Counter& hits = obs::GetCounter("gc.pool.hit");
  static obs::Counter& misses = obs::GetCounter("gc.pool.miss");
  (hit ? hits : misses).Add();
}

void CountGcRefill() {
  if (!obs::Enabled()) return;
  static obs::Counter& refills = obs::GetCounter("gc.pool.refill");
  refills.Add();
}

}  // namespace

bool PoolsDisabledByEnv() {
  const char* v = std::getenv("PAFS_NO_POOL");
  return v != nullptr && std::strtoull(v, nullptr, 10) != 0;
}

GcPool::GcPool(size_t depth, size_t max_keys)
    : depth_(depth), max_keys_(std::max<size_t>(max_keys, 1)) {}

void GcPool::RegisterKey(const std::vector<int>& key,
                         std::shared_ptr<const Circuit> circuit) {
  PAFS_CHECK(circuit != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[key];
  // A restored queue predates the re-registered circuit; the disclosure
  // key pins the circuit shape, but guard against a mismatched snapshot
  // rather than hand out unusable material.
  if (!entry.ready.empty() &&
      entry.ready.front()->input_labels.size() !=
          circuit->garbler_inputs() + circuit->evaluator_inputs()) {
    entry.ready.clear();
  }
  entry.circuit = std::move(circuit);
  entry.last_used = ++clock_;
  EvictOverCapLocked();
}

bool GcPool::TryTake(const std::vector<int>& key, Garbled* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.ready.empty()) {
    ++stats_.misses;
    CountGcTake(false);
    if (it != entries_.end()) it->second.last_used = ++clock_;
    return false;
  }
  *out = std::move(it->second.ready.front());
  it->second.ready.pop_front();
  it->second.last_used = ++clock_;
  ++stats_.hits;
  CountGcTake(true);
  RecordGcDepth(it->second.ready.size());
  return true;
}

size_t GcPool::Deficit() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t deficit = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.circuit == nullptr) continue;
    if (entry.ready.size() < depth_) deficit += depth_ - entry.ready.size();
  }
  return deficit;
}

bool GcPool::RefillOne(Rng& rng) {
  // Pick the neediest key, ties broken toward the most recently used (the
  // next query most likely repeats a recent disclosure set), and copy its
  // circuit out so the expensive garble runs outside the lock.
  std::vector<int> key;
  std::shared_ptr<const Circuit> circuit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t best_deficit = 0;
    uint64_t best_used = 0;
    for (const auto& [k, entry] : entries_) {
      if (entry.circuit == nullptr || entry.ready.size() >= depth_) continue;
      size_t deficit = depth_ - entry.ready.size();
      if (deficit > best_deficit ||
          (deficit == best_deficit && entry.last_used > best_used)) {
        best_deficit = deficit;
        best_used = entry.last_used;
        key = k;
        circuit = entry.circuit;
      }
    }
  }
  if (circuit == nullptr) return false;

  Prg prg(Block(rng.NextU64(), rng.NextU64()));
  auto gc = std::make_shared<const GarbledCircuit>(Garble(*circuit, prg));

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  // The key may have been evicted while we garbled; drop the work then.
  if (it == entries_.end() || it->second.ready.size() >= depth_) return false;
  it->second.ready.push_back(std::move(gc));
  ++stats_.refilled;
  CountGcRefill();
  RecordGcDepth(it->second.ready.size());
  return true;
}

GcPool::Snapshot GcPool::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  for (const auto& [key, entry] : entries_) snapshot.emplace(key, entry.ready);
  return snapshot;
}

void GcPool::Restore(Snapshot snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  for (auto& [key, ready] : snapshot) {
    Entry entry;
    entry.ready = std::move(ready);
    entry.last_used = ++clock_;
    entries_.emplace(key, std::move(entry));
  }
}

GcPool::Stats GcPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void GcPool::EvictOverCapLocked() {
  while (entries_.size() > max_keys_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    entries_.erase(victim);
  }
}

SessionPrecompute::SessionPrecompute(int gc_depth, int ot_pads, uint64_t seed)
    : fill_rng_(seed) {
  if (gc_depth > 0) {
    gc_pool_ = std::make_unique<GcPool>(
        static_cast<size_t>(gc_depth),
        static_cast<size_t>(kDefaultMaxSpecKeys));
  }
  if (ot_pads > 0) {
    ot_pads_ = std::make_unique<OtSenderPadPool>(static_cast<size_t>(ot_pads));
  }
}

bool SessionPrecompute::NeedsRefill() const {
  return gc_pool_ != nullptr && gc_pool_->Deficit() > 0;
}

size_t SessionPrecompute::RefillStep(const std::atomic<bool>* stop) {
  // At most one garble per pass: forest circuits take tens of
  // milliseconds, so this bounds how long a draining server waits on its
  // fillers.
  if (gc_pool_ == nullptr || (stop != nullptr && stop->load())) return 0;
  return gc_pool_->RefillOne(fill_rng_) ? 1 : 0;
}

SessionPrecompute::Snapshot SessionPrecompute::snapshot() const {
  Snapshot snapshot;
  if (gc_pool_ != nullptr) snapshot.gc = gc_pool_->snapshot();
  if (ot_pads_ != nullptr) snapshot.ot_pads = ot_pads_->snapshot();
  return snapshot;
}

void SessionPrecompute::Restore(Snapshot snapshot) {
  // Snapshots come from sessions of the same server, whose pool depths are
  // fixed at construction, so a snapshot holds exactly this session's pools.
  if (gc_pool_ != nullptr) gc_pool_->Restore(std::move(snapshot.gc));
  if (ot_pads_ != nullptr) ot_pads_->Restore(std::move(snapshot.ot_pads));
}

}  // namespace pafs::serve
