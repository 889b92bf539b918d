// Probabilistic primality testing and random prime generation for Paillier
// key material and the base-OT group.
#ifndef PAFS_BIGNUM_PRIME_H_
#define PAFS_BIGNUM_PRIME_H_

#include "bignum/bigint.h"

namespace pafs {

class Rng;

// Miller-Rabin with `rounds` random bases (error < 4^-rounds).
bool IsProbablePrime(const BigInt& n, Rng& rng, int rounds = 24);

// Uniform-ish random prime with exactly `bits` bits.
BigInt RandomPrime(Rng& rng, int bits);

// Random safe prime p = 2q + 1 with both p, q prime; `bits` is the size of
// p. Slow for large sizes; used only for small OT group setup in tests.
BigInt RandomSafePrime(Rng& rng, int bits);

// The fixed 1024-bit safe prime of RFC 3526's 1024-bit MODP group. No
// protocol uses it any more; bench_kernels times the modexp kernel at this
// modulus so its row stays comparable with earlier measurements.
const BigInt& Rfc3526Prime1024();

}  // namespace pafs

#endif  // PAFS_BIGNUM_PRIME_H_
