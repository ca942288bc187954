// BLAKE2s (RFC 7693), self-contained: the fabric's shared-secret frame
// authentication must not pull in an external crypto dependency. Only
// the sequential, single-depth mode is implemented — exactly the RFC's
// keyed-hash configuration.

#include "util/blake2s.h"

#include <cstdint>
#include <cstring>

namespace relcomp {
namespace {

constexpr uint32_t kIv[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr uint8_t kSigma[10][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
};

inline uint32_t RotR(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

struct Blake2sState {
  uint32_t h[8];
  uint64_t t = 0;      // bytes compressed so far
  uint8_t buf[64];     // pending block
  size_t buf_len = 0;
  size_t out_len;

  Blake2sState(size_t digest_len, size_t key_len) : out_len(digest_len) {
    for (int i = 0; i < 8; ++i) h[i] = kIv[i];
    // Parameter block word 0: digest_length | key_length<<8 |
    // fanout(1)<<16 | depth(1)<<24. All other parameter words are zero
    // in sequential mode, so only h[0] is perturbed.
    h[0] ^= static_cast<uint32_t>(digest_len) |
            (static_cast<uint32_t>(key_len) << 8) | (1u << 16) | (1u << 24);
  }

  void Compress(const uint8_t* block, bool last) {
    uint32_t m[16];
    for (int i = 0; i < 16; ++i) m[i] = LoadLe32(block + 4 * i);
    uint32_t v[16];
    for (int i = 0; i < 8; ++i) v[i] = h[i];
    for (int i = 0; i < 8; ++i) v[8 + i] = kIv[i];
    v[12] ^= static_cast<uint32_t>(t);
    v[13] ^= static_cast<uint32_t>(t >> 32);
    if (last) v[14] = ~v[14];

    auto g = [&](int a, int b, int c, int d, uint32_t x, uint32_t y) {
      v[a] = v[a] + v[b] + x;
      v[d] = RotR(v[d] ^ v[a], 16);
      v[c] = v[c] + v[d];
      v[b] = RotR(v[b] ^ v[c], 12);
      v[a] = v[a] + v[b] + y;
      v[d] = RotR(v[d] ^ v[a], 8);
      v[c] = v[c] + v[d];
      v[b] = RotR(v[b] ^ v[c], 7);
    };
    for (int round = 0; round < 10; ++round) {
      const uint8_t* s = kSigma[round];
      g(0, 4, 8, 12, m[s[0]], m[s[1]]);
      g(1, 5, 9, 13, m[s[2]], m[s[3]]);
      g(2, 6, 10, 14, m[s[4]], m[s[5]]);
      g(3, 7, 11, 15, m[s[6]], m[s[7]]);
      g(0, 5, 10, 15, m[s[8]], m[s[9]]);
      g(1, 6, 11, 12, m[s[10]], m[s[11]]);
      g(2, 7, 8, 13, m[s[12]], m[s[13]]);
      g(3, 4, 9, 14, m[s[14]], m[s[15]]);
    }
    for (int i = 0; i < 8; ++i) h[i] ^= v[i] ^ v[8 + i];
  }

  void Update(const uint8_t* data, size_t len) {
    while (len > 0) {
      if (buf_len == 64) {
        // A full buffered block compresses only once MORE input
        // arrives: the final block must be flagged, and we cannot know
        // a block is final until we see bytes past it.
        t += 64;
        Compress(buf, /*last=*/false);
        buf_len = 0;
      }
      const size_t take = len < 64 - buf_len ? len : 64 - buf_len;
      std::memcpy(buf + buf_len, data, take);
      buf_len += take;
      data += take;
      len -= take;
    }
  }

  std::string Final() {
    t += buf_len;
    std::memset(buf + buf_len, 0, 64 - buf_len);
    Compress(buf, /*last=*/true);
    std::string out(out_len, '\0');
    for (size_t i = 0; i < out_len; ++i) {
      out[i] = static_cast<char>((h[i / 4] >> (8 * (i % 4))) & 0xff);
    }
    return out;
  }
};

std::string Blake2s(std::string_view key, std::string_view data,
                    size_t out_len) {
  Blake2sState state(out_len, key.size());
  if (!key.empty()) {
    // Keyed mode: the key, zero-padded to a full block, is prepended as
    // the first input block (RFC 7693 §2.9).
    uint8_t key_block[64] = {0};
    std::memcpy(key_block, key.data(), key.size());
    state.Update(key_block, 64);
  }
  state.Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  return state.Final();
}

}  // namespace

std::string Blake2sMac(std::string_view key, std::string_view data,
                       size_t out_len) {
  if (out_len < 1) out_len = 1;
  if (out_len > 32) out_len = 32;
  if (key.size() > 32) {
    // BLAKE2s caps keys at 32 bytes; longer operator-supplied keys are
    // reduced by the unkeyed hash first, HMAC-style.
    const std::string reduced = Blake2s("", key, 32);
    return Blake2s(reduced, data, out_len);
  }
  return Blake2s(key, data, out_len);
}

Blake2sDigest Blake2s256(std::string_view data) {
  const std::string hash = Blake2s("", data, 32);
  Blake2sDigest digest;
  std::memcpy(digest.data(), hash.data(), digest.size());
  return digest;
}

bool ConstantTimeEqual(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  unsigned char acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<unsigned char>(
        acc | (static_cast<unsigned char>(a[i]) ^
               static_cast<unsigned char>(b[i])));
  }
  return acc == 0;
}

}  // namespace relcomp
