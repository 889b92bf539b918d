// Offline/online split for Paillier randomness: a bounded pool of
// precomputed pads r^n mod n^2 for one public key. Filling the pool is the
// offline phase (idle workers between queries, or the client right after a
// resumption snapshot); draining it makes the online Encrypt/Rerandomize a
// single modular multiply.
//
// Determinism contract (serving-layer resumption): Refill draws its pad
// bases from the caller's rng with exactly the draws an inline Encrypt loop
// would make, in order. A client that (1) refills only immediately after
// taking a resumption snapshot and (2) clears the pool whenever it restores
// one therefore reproduces byte-identical ciphertexts when a query is
// re-run from the snapshot — pooled or not — which is what the server's
// replay-divergence check demands. Server-side pools have no such
// constraint (retries replay from the transcript, never re-run), so they
// may refill from any dedicated rng at any time.
//
// Thread safety: all methods lock internally; the expensive modexp in
// Refill runs outside the lock so online TryTake never waits on a fill.
// Telemetry: paillier.pool.hit / .miss / .refill counters and a
// paillier.pool.depth histogram, sampled on every take and refill.
#ifndef PAFS_CRYPTO_PAILLIER_POOL_H_
#define PAFS_CRYPTO_PAILLIER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "crypto/paillier.h"

namespace pafs {

class Rng;
class ThreadPool;

class PaillierPadPool {
 public:
  PaillierPadPool(PaillierPublicKey pk, size_t target_depth);

  const PaillierPublicKey& public_key() const { return pk_; }
  size_t target_depth() const { return target_; }
  // Server pools follow the client-announced modulus; a mismatch means the
  // pool must be rebuilt for the new key.
  bool MatchesModulus(const BigInt& n) const { return pk_.n() == n; }

  // Pops a pad into *pad; false when empty (caller falls back to the
  // online path). Counted as pool hit/miss.
  bool TryTake(BigInt* pad);

  // Draws bases from `rng` and computes up to `count` pads, never growing
  // past target_depth. `stop`, when given, is polled between pads so a
  // draining server can abandon a refill mid-batch. Returns pads added.
  size_t Refill(Rng& rng, size_t count, const std::atomic<bool>* stop = nullptr);

  // Pads needed to reach target_depth.
  size_t Deficit() const;
  size_t depth() const;
  // Drops every pad. A client restoring a resumption snapshot must call
  // this before re-running a query (see the determinism contract above).
  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t refilled = 0;
  };
  Stats stats() const;

 private:
  PaillierPublicKey pk_;
  size_t target_;
  mutable std::mutex mu_;
  // FIFO: pads leave in the order their bases were drawn, preserving the
  // rng-stream ordering the determinism contract relies on.
  std::deque<BigInt> pads_;
  Stats stats_;
};

// Encrypts `ms` like a serial pk.Encrypt loop, but takes pads from `pool`
// when available and computes the missing ones on `threads` (nullptr = the
// calling thread). Pad bases for pool misses are drawn from `rng` serially
// in slot order before any parallel work, so the ciphertexts are
// byte-identical to the equivalent inline loop over the same rng stream.
std::vector<BigInt> EncryptBatch(const PaillierPublicKey& pk,
                                 const std::vector<BigInt>& ms, Rng& rng,
                                 PaillierPadPool* pool = nullptr,
                                 ThreadPool* threads = nullptr);

}  // namespace pafs

#endif  // PAFS_CRYPTO_PAILLIER_POOL_H_
