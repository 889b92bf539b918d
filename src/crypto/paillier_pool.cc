#include "crypto/paillier_pool.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"

namespace pafs {

namespace {

void RecordDepth(size_t depth) {
  if (!obs::Enabled()) return;
  static obs::Histogram& h = obs::GetHistogram("paillier.pool.depth");
  h.Record(static_cast<double>(depth) + 1e-9);  // Keep depth 0 recordable.
}

}  // namespace

PaillierPadPool::PaillierPadPool(PaillierPublicKey pk, size_t target_depth)
    : pk_(std::move(pk)), target_(target_depth) {}

bool PaillierPadPool::TryTake(BigInt* pad) {
  static obs::Counter& hits = obs::GetCounter("paillier.pool.hit");
  static obs::Counter& misses = obs::GetCounter("paillier.pool.miss");
  std::lock_guard<std::mutex> lock(mu_);
  if (pads_.empty()) {
    ++stats_.misses;
    misses.Add();
    RecordDepth(0);
    return false;
  }
  *pad = std::move(pads_.front());
  pads_.pop_front();
  ++stats_.hits;
  hits.Add();
  RecordDepth(pads_.size());
  return true;
}

size_t PaillierPadPool::Refill(Rng& rng, size_t count,
                               const std::atomic<bool>* stop) {
  static obs::Counter& refills = obs::GetCounter("paillier.pool.refill");
  size_t added = 0;
  for (size_t i = 0; i < count; ++i) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    BigInt base;
    {
      // The draw is serialized under the pool lock; the modexp below is
      // not, so online TryTake never waits on a fill in progress.
      std::lock_guard<std::mutex> lock(mu_);
      if (pads_.size() >= target_) break;
      base = pk_.SamplePadBase(rng);
    }
    BigInt pad = pk_.ComputePad(base);
    {
      // Recheck the bound: another refiller (or a Restore) may have filled
      // the pool while the modexp ran unlocked. Dropping the pad wastes
      // one modexp but keeps depth <= target_ an invariant.
      std::lock_guard<std::mutex> lock(mu_);
      if (pads_.size() >= target_) break;
      pads_.push_back(std::move(pad));
      ++stats_.refilled;
      RecordDepth(pads_.size());
    }
    refills.Add();
    ++added;
  }
  return added;
}

size_t PaillierPadPool::Deficit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pads_.size() >= target_ ? 0 : target_ - pads_.size();
}

size_t PaillierPadPool::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pads_.size();
}

void PaillierPadPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  pads_.clear();
}

PaillierPadPool::Stats PaillierPadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<BigInt> EncryptBatch(const PaillierPublicKey& pk,
                                 const std::vector<BigInt>& ms, Rng& rng,
                                 PaillierPadPool* pool, ThreadPool* threads) {
  obs::TraceSpan span("paillier.encrypt_batch");
  static obs::Counter& ops = obs::GetCounter("paillier.encrypt");
  ops.Add(ms.size());

  // Pads first: pooled slots take precomputed pads (FIFO, oldest draws
  // first); the rest get their bases drawn serially in slot order so the
  // overall r-sequence matches an inline Encrypt loop over the same rng.
  std::vector<BigInt> pads(ms.size());
  std::vector<size_t> missing;
  for (size_t i = 0; i < ms.size(); ++i) {
    if (pool == nullptr || !pool->TryTake(&pads[i])) missing.push_back(i);
  }
  std::vector<BigInt> bases(missing.size());
  for (size_t j = 0; j < missing.size(); ++j) bases[j] = pk.SamplePadBase(rng);

  auto compute = [&](size_t j) { pads[missing[j]] = pk.ComputePad(bases[j]); };
  if (threads != nullptr && missing.size() > 1) {
    threads->ParallelFor(0, missing.size(), 1,
                         [&](size_t begin, size_t end) {
                           for (size_t j = begin; j < end; ++j) compute(j);
                         });
  } else {
    for (size_t j = 0; j < missing.size(); ++j) compute(j);
  }

  std::vector<BigInt> cts(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    cts[i] = pk.EncryptWithPad(ms[i], pads[i]);
  }
  return cts;
}

}  // namespace pafs
