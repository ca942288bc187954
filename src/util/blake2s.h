#ifndef RELCOMP_UTIL_BLAKE2S_H_
#define RELCOMP_UTIL_BLAKE2S_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace relcomp {

/// Length of the frame-authentication tag: a truncated keyed BLAKE2s
/// digest. 128 bits is the standard MAC truncation — collision attacks
/// don't apply to a keyed tag, so forgery resistance is 2^128.
inline constexpr size_t kBlake2sTagLength = 16;

/// Keyed BLAKE2s (RFC 7693) over `data`, truncated to `out_len` bytes
/// (1..32). BLAKE2's keyed mode is a PRF by design, so this is a MAC
/// without the HMAC double-hash construction. `key` may be up to 32
/// bytes; longer keys are first reduced by an unkeyed BLAKE2s-256.
/// An empty key degenerates to the plain hash — callers gate on key
/// presence before trusting tags.
std::string Blake2sMac(std::string_view key, std::string_view data,
                       size_t out_len = kBlake2sTagLength);

/// An unkeyed BLAKE2s-256 digest.
using Blake2sDigest = std::array<uint8_t, 32>;

/// Unkeyed BLAKE2s-256 (RFC 7693) over `data`: a collision-resistant
/// identity for bytes a client chooses (job records, instance content).
Blake2sDigest Blake2s256(std::string_view data);

/// Constant-time equality for MAC tags: the comparison cost depends
/// only on the lengths, never on where the first mismatch sits, so a
/// forger cannot binary-search a tag byte-by-byte off timing.
bool ConstantTimeEqual(std::string_view a, std::string_view b);

}  // namespace relcomp

#endif  // RELCOMP_UTIL_BLAKE2S_H_
