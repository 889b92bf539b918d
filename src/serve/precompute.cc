#include "serve/precompute.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
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

void SerializeBlock(ByteWriter& w, const Block& b) {
  uint8_t buf[16];
  b.ToBytes(buf);
  w.Bytes(buf, 16);
}

Block RestoreBlock(ByteReader& r) {
  uint8_t buf[16];
  r.Bytes(buf, 16);
  return Block::FromBytes(buf);
}

void SerializeBits(ByteWriter& w, const BitVec& bits) {
  w.U64(bits.size());
  std::vector<uint8_t> bytes = bits.ToBytes();
  w.Bytes(bytes.data(), bytes.size());
}

BitVec RestoreBits(ByteReader& r) {
  uint64_t n = r.U64();
  std::vector<uint8_t> bytes((n + 7) / 8);
  r.Bytes(bytes.data(), bytes.size());
  return BitVec::FromBytes(bytes.data(), n);
}

// Garbled-circuit material is snapshot-only state (trusted in-process
// bytes), so the layout can stay simple: delta, label pairs, tables,
// decode bits.
void SerializeGarbled(ByteWriter& w, const GarbledCircuit& gc) {
  SerializeBlock(w, gc.delta);
  w.U64(gc.input_labels.size());
  for (const auto& pair : gc.input_labels) {
    SerializeBlock(w, pair[0]);
    SerializeBlock(w, pair[1]);
  }
  w.U64(gc.and_tables.size());
  for (const GarbledTable& t : gc.and_tables) {
    SerializeBlock(w, t.tg);
    SerializeBlock(w, t.te);
  }
  SerializeBits(w, gc.output_decode);
}

GarbledCircuit RestoreGarbled(ByteReader& r) {
  GarbledCircuit gc;
  gc.delta = RestoreBlock(r);
  uint64_t inputs = r.U64();
  gc.input_labels.resize(inputs);
  for (auto& pair : gc.input_labels) {
    pair[0] = RestoreBlock(r);
    pair[1] = RestoreBlock(r);
  }
  uint64_t tables = r.U64();
  gc.and_tables.resize(tables);
  for (GarbledTable& t : gc.and_tables) {
    t.tg = RestoreBlock(r);
    t.te = RestoreBlock(r);
  }
  gc.output_decode = RestoreBits(r);
  return gc;
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
      entry.ready.front().input_labels.size() !=
          circuit->garbler_inputs() + circuit->evaluator_inputs()) {
    entry.ready.clear();
  }
  entry.circuit = std::move(circuit);
  entry.last_used = ++clock_;
  EvictOverCapLocked();
}

bool GcPool::TryTake(const std::vector<int>& key, GarbledCircuit* out) {
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
  GarbledCircuit gc = Garble(*circuit, prg);

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

void GcPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

void GcPool::Serialize(ByteWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.U32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [key, entry] : entries_) {
    w.U32(static_cast<uint32_t>(key.size()));
    for (int v : key) w.U64(static_cast<uint64_t>(v));
    w.U32(static_cast<uint32_t>(entry.ready.size()));
    for (const GarbledCircuit& gc : entry.ready) SerializeGarbled(w, gc);
  }
}

void GcPool::Restore(ByteReader& r) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  uint32_t keys = r.U32();
  for (uint32_t i = 0; i < keys; ++i) {
    uint32_t key_len = r.U32();
    std::vector<int> key(key_len);
    for (uint32_t j = 0; j < key_len; ++j) {
      key[j] = static_cast<int>(r.U64());
    }
    Entry entry;
    uint32_t ready = r.U32();
    for (uint32_t j = 0; j < ready; ++j) {
      entry.ready.push_back(RestoreGarbled(r));
    }
    entry.last_used = ++clock_;
    entries_.emplace(std::move(key), std::move(entry));
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

SessionPrecompute::SessionPrecompute(const PrecomputeConfig& config,
                                     uint64_t seed)
    : fill_rng_(seed) {
  const bool enabled = config.enabled && !PoolsDisabledByEnv();
  if (enabled && config.gc_depth > 0) {
    gc_pool_ = std::make_unique<GcPool>(
        static_cast<size_t>(config.gc_depth),
        static_cast<size_t>(config.gc_max_keys));
  }
  if (enabled && config.ot_pads > 0) {
    ot_pads_ =
        std::make_unique<OtSenderPadPool>(static_cast<size_t>(config.ot_pads));
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

void SessionPrecompute::Serialize(ByteWriter& w) const {
  w.U32(gc_pool_ != nullptr ? 1 : 0);
  if (gc_pool_ != nullptr) gc_pool_->Serialize(w);
  w.U32(ot_pads_ != nullptr ? 1 : 0);
  if (ot_pads_ != nullptr) ot_pads_->Serialize(w);
}

void SessionPrecompute::Restore(ByteReader& r) {
  if (r.U32() != 0) {
    if (gc_pool_ != nullptr) {
      gc_pool_->Restore(r);
    } else {
      GcPool scratch{0, 1};
      scratch.Restore(r);  // Consume past the block under PAFS_NO_POOL.
    }
  } else if (gc_pool_ != nullptr) {
    gc_pool_->Clear();
  }
  if (r.U32() != 0) {
    if (ot_pads_ != nullptr) {
      ot_pads_->Restore(r);
    } else {
      OtSenderPadPool scratch{0};
      scratch.Restore(r);
    }
  } else if (ot_pads_ != nullptr) {
    ot_pads_->Clear();
  }
}

}  // namespace pafs::serve
