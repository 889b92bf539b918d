// Per-session precompute pools: the serving half of the offline/online
// split (DESIGN.md "Offline/online split"). A session owns one
// SessionPrecompute; idle workers fill it between queries so the online
// protocol finds its input-independent material ready.
//
// Two kinds of material are pooled: pre-garbled circuits (GcPool, keyed by
// the disclosure set; NB and linear sessions use one session-wide key) and
// sender-side OT-extension pads (ot/ot_pool.h; the expansion itself is
// driven by the server task because it needs the session's OT stream
// exclusivity).
//
// Threading contract: the server guarantees at most one filler task per
// session at a time (Session::filling), so RefillStep never races itself
// and fill_rng_ needs no lock. Pool contents are internally locked, so an
// online query taking material may overlap a filler mid-refill. Both pools
// are created once in the constructor and never replaced, so their raw
// accessors are safe without a lock.
#ifndef PAFS_SERVE_PRECOMPUTE_H_
#define PAFS_SERVE_PRECOMPUTE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "gc/garble.h"
#include "ot/ot_pool.h"
#include "util/random.h"

namespace pafs::serve {

// A pool of pre-garbled circuits, keyed by the disclosure set that shaped
// the circuit (the GC protocol's only query-dependent input — garbling
// randomness is input-independent). Entries are single-use: TryTake pops,
// because reusing garbled material across evaluations leaks wire labels.
// Keys are registered by the serving layer when it first builds a circuit
// for a disclosure set; the filler then keeps each registered key's queue
// topped up to `depth`, garbling one circuit per pass so a draining server
// stops quickly. Bounded to `max_keys` disclosure sets, evicting the least
// recently used.
//
// Garbled circuits are immutable once garbled and held by shared_ptr, so
// a snapshot (session resumption) shares them with the live pool instead
// of copying their tables. Restore brings back the garbled material but
// not the circuits, which live in the serving layer's spec map; a restored
// key serves TryTake immediately and resumes refilling once RegisterKey
// re-attaches its circuit. Telemetry: gc.pool.hit / .miss / .refill
// counters and a gc.pool.depth histogram.
class GcPool {
 public:
  using Garbled = std::shared_ptr<const GarbledCircuit>;
  // Every key's ready queue, oldest first.
  using Snapshot = std::map<std::vector<int>, std::deque<Garbled>>;

  GcPool(size_t depth, size_t max_keys);

  // Registers (or re-attaches) the circuit for a key and bumps its LRU
  // stamp. The pool holds the circuit by shared_ptr, so it stays alive
  // while registered.
  void RegisterKey(const std::vector<int>& key,
                   std::shared_ptr<const Circuit> circuit);

  // Pops one pre-garbled circuit for `key`. False (a miss — caller garbles
  // online) when the key is unknown or its queue is empty.
  bool TryTake(const std::vector<int>& key, Garbled* out);

  // Garbled circuits short of depth, summed over keys with a circuit.
  size_t Deficit() const;
  // Garbles one circuit for the neediest key (most recently used first).
  // Returns false when nothing needs refilling.
  bool RefillOne(Rng& rng);

  Snapshot snapshot() const;
  void Restore(Snapshot snapshot);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t refilled = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const Circuit> circuit;  // Null until RegisterKey.
    std::deque<Garbled> ready;
    uint64_t last_used = 0;
  };

  void EvictOverCapLocked();

  size_t depth_;
  size_t max_keys_;
  mutable std::mutex mu_;
  std::map<std::vector<int>, Entry> entries_;
  uint64_t clock_ = 0;
  Stats stats_;
};

// True when PAFS_NO_POOL is set to a nonzero value: a server then zeroes
// both pool depths and announces OT pool depth 0, so its clients run
// unpooled too and the online path stays covered. Only the server reads it.
bool PoolsDisabledByEnv();

class SessionPrecompute {
 public:
  // Both pools' contents for the session's resumption snapshot, sharing
  // their immutable material (garbled circuits, pad segments).
  struct Snapshot {
    GcPool::Snapshot gc;
    OtSenderPadPool::State ot_pads;
  };

  // `gc_depth` pre-garbled circuits per disclosure key (for up to
  // kDefaultMaxSpecKeys keys before LRU eviction) and a sender-side OT pad
  // pool of `ot_pads` random OTs, each one label transfer.
  SessionPrecompute(int gc_depth, int ot_pads, uint64_t seed);

  // The GC and OT pools, created once at construction. Null at zero depth
  // (which PAFS_NO_POOL forces on the server).
  GcPool* gc_pool() { return gc_pool_.get(); }
  OtSenderPadPool* ot_pads() { return ot_pads_.get(); }

  // True when a filler pass would garble (OT materialization is the
  // server task's job — it needs the OT stream).
  bool NeedsRefill() const;
  // One bounded refill pass (filler task body): garbles at most one
  // circuit unless `stop` is set. Returns the number of circuits added.
  size_t RefillStep(const std::atomic<bool>* stop);

  Snapshot snapshot() const;
  void Restore(Snapshot snapshot);

 private:
  Rng fill_rng_;  // Dedicated: garbling seeds have no determinism constraint.
  std::unique_ptr<GcPool> gc_pool_;
  std::unique_ptr<OtSenderPadPool> ot_pads_;
};

}  // namespace pafs::serve

#endif  // PAFS_SERVE_PRECOMPUTE_H_
