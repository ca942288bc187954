#ifndef RELCOMP_UTIL_CODEC_H_
#define RELCOMP_UTIL_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace relcomp {

// --- The one grammar of relcomp's text formats ------------------------
//
// relcomp-net/1, relcomp-job/1, relcomp-ckpt/1, relcomp-store/1 (records
// and checkpoint file names), relcomp-verdict/1, relcomp-fabric/1,
// relcomp-cert/1 and the rcqp-ind checkpoint payload
// are all built from the same four pieces: a versioned magic token,
// space-terminated fields, decimal u64s (1 to 20 digits, overflow-
// checked), fixed-width hex, and "<len>:<bytes>" segments. Each format
// reads its untrusted bytes through one CodecReader, so a lying length,
// an overlong number or a torn tail is refused the same way everywhere.

/// Cursor over untrusted text. Every read is bounds- and format-checked
/// and consumes nothing when it refuses; a refusal is a kInvalidArgument
/// that names the format, the defect and the byte offset. Reads return
/// views into the text, never copies.
class CodecReader {
 public:
  /// `format` names the text in every refusal ("relcomp-job/1").
  CodecReader(std::string_view format, std::string_view text)
      : format_(format), text_(text) {}

  /// Consumes "<magic> ", the versioned first token of a format.
  Status Magic(std::string_view magic);
  /// The bytes up to the next space; the space is consumed too.
  Result<std::string_view> Field();
  /// A Field() that must be one of `tokens`; yields its index.
  template <size_t N>
  Result<size_t> Token(const char* const (&tokens)[N]) {
    CodecReader after = *this;
    RELCOMP_ASSIGN_OR_RETURN(const std::string_view field, after.Field());
    for (size_t i = 0; i < N; ++i) {
      if (field == tokens[i]) {
        *this = after;
        return i;
      }
    }
    return Malformed("unknown token");
  }
  /// One to 20 decimal digits, overflow-checked; the first non-digit
  /// after them is left unconsumed.
  Result<uint64_t> U64();
  /// Exactly `width` (1..16) hex digits of either case.
  Result<uint64_t> Hex(size_t width);
  /// A "<len>:<bytes>" segment whose declared length is at most `cap`
  /// and no more than what is left.
  Result<std::string_view> Sized(uint64_t cap = UINT64_MAX);
  /// Consumes `literal` exactly.
  Status Expect(std::string_view literal);
  /// Consumes `literal` if it comes next; false (nothing consumed) if not.
  bool Accept(std::string_view literal);
  /// One byte.
  Result<char> Char();
  /// Refuses unless every byte was consumed.
  Status End() const;

  bool at_end() const { return pos_ == text_.size(); }
  /// The refusal for `defect` at the current position.
  Status Malformed(std::string_view defect) const;

 private:
  std::string_view format_;
  std::string_view text_;
  size_t pos_ = 0;
};

/// Appends the "<len>:<bytes>" segment CodecReader::Sized reads.
void AppendSized(std::string_view bytes, std::string* out);
/// `value` as exactly `width` lowercase hex digits (zero-padded).
std::string Hex(uint64_t value, size_t width);

/// Little-endian u32s of the binary frame headers.
void PutU32Le(uint32_t value, std::string* out);
uint32_t GetU32Le(const char* bytes);

/// CRC-32 (IEEE 802.3, reflected; the zlib/PNG checksum) of `data`:
/// the integrity check of frames and store records.
uint32_t Crc32(std::string_view data);

/// The standard FNV-1a 64-bit offset basis.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
/// The basis of every persisted fingerprint: the decimal FNV offset
/// basis 14695981039346656037 with its last digit dropped. Checkpoint
/// fingerprints, FingerprintTuple and a certificate's options
/// fingerprint start here, so a different value would orphan every
/// store written so far; it cannot change.
inline constexpr uint64_t kFingerprintBasis = 1469598103934665603ull;

/// FNV-1a over `bytes`, continuing from `h`.
uint64_t Fnv1a(uint64_t h, std::string_view bytes);
/// FNV-1a over the 8 little-endian bytes of `value`, continuing from `h`.
uint64_t Fnv1aU64(uint64_t h, uint64_t value);

}  // namespace relcomp

#endif  // RELCOMP_UTIL_CODEC_H_
