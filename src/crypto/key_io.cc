#include "crypto/key_io.h"

#include <fstream>
#include <sstream>

#include "bignum/prime.h"
#include "util/random.h"

namespace pafs {

namespace {

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for writing: " + path);
  out << content;
  return Status::Ok();
}

bool IsHex(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

Status SavePaillierKey(const PaillierKeyPair& keys, const std::string& path) {
  std::ostringstream out;
  out << "pafs_paillier_private v1\n";
  out << "p " << keys.private_key.p().ToHex() << "\n";
  out << "q " << keys.private_key.q().ToHex() << "\n";
  return WriteFile(path, out.str());
}

StatusOr<PaillierKeyPair> LoadPaillierKey(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "pafs_paillier_private" ||
      version != "v1") {
    return Status::InvalidArgument("not a pafs_paillier_private v1 file");
  }
  std::string tag_p, hex_p, tag_q, hex_q;
  if (!(in >> tag_p >> hex_p >> tag_q >> hex_q) || tag_p != "p" ||
      tag_q != "q" || !IsHex(hex_p) || !IsHex(hex_q)) {
    return Status::InvalidArgument("malformed key file");
  }
  BigInt p = BigInt::FromHex(hex_p);
  BigInt q = BigInt::FromHex(hex_q);
  if (p == q || p < BigInt(3) || q < BigInt(3)) {
    return Status::InvalidArgument("invalid prime factors");
  }
  // Sanity-check primality (cheap rounds): a corrupt file should fail here
  // rather than produce undecryptable ciphertexts later.
  Rng rng(0x6b6579);
  if (!IsProbablePrime(p, rng, 8) || !IsProbablePrime(q, rng, 8)) {
    return Status::InvalidArgument("factors are not prime");
  }
  return PaillierKeyPair(PaillierPrivateKey(p, q));
}

Status SavePaillierPublicKey(const PaillierPublicKey& key,
                             const std::string& path) {
  std::ostringstream out;
  out << "pafs_paillier_public v1\n";
  out << "n " << key.n().ToHex() << "\n";
  return WriteFile(path, out.str());
}

StatusOr<PaillierPublicKey> LoadPaillierPublicKey(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "pafs_paillier_public" ||
      version != "v1") {
    return Status::InvalidArgument("not a pafs_paillier_public v1 file");
  }
  std::string tag, hex;
  if (!(in >> tag >> hex) || tag != "n" || !IsHex(hex)) {
    return Status::InvalidArgument("malformed key file");
  }
  BigInt n = BigInt::FromHex(hex);
  if (!n.is_odd() || n < BigInt(15)) {
    return Status::InvalidArgument("implausible modulus");
  }
  return PaillierPublicKey(std::move(n));
}

}  // namespace pafs
