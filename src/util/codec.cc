#include "util/codec.h"

#include <array>

#include "util/str.h"

namespace relcomp {

Status CodecReader::Malformed(std::string_view defect) const {
  return Status::InvalidArgument(StrCat("malformed ", format_, " (", defect,
                                        " at byte ", pos_, " of ",
                                        text_.size(), ")"));
}

Status CodecReader::Magic(std::string_view magic) {
  const std::string_view rest = text_.substr(pos_);
  if (rest.size() <= magic.size() || rest.substr(0, magic.size()) != magic ||
      rest[magic.size()] != ' ') {
    return Malformed(StrCat("bad magic, want ", magic));
  }
  pos_ += magic.size() + 1;
  return Status::OK();
}

Result<std::string_view> CodecReader::Field() {
  const size_t space = text_.find(' ', pos_);
  if (space == std::string_view::npos) {
    return Malformed("expected a space-terminated field");
  }
  const std::string_view field = text_.substr(pos_, space - pos_);
  pos_ = space + 1;
  return field;
}

Result<uint64_t> CodecReader::U64() {
  uint64_t value = 0;
  size_t end = pos_;
  for (; end < text_.size() && text_[end] >= '0' && text_[end] <= '9'; ++end) {
    if (end - pos_ == 20) return Malformed("number longer than 20 digits");
    const uint64_t digit = static_cast<uint64_t>(text_[end] - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Malformed("number overflows 64 bits");
    }
    value = value * 10 + digit;
  }
  if (end == pos_) return Malformed("expected a decimal number");
  pos_ = end;
  return value;
}

Result<uint64_t> CodecReader::Hex(size_t width) {
  if (width == 0 || width > 16 || text_.size() - pos_ < width) {
    return Malformed(StrCat("expected ", width, " hex digits"));
  }
  uint64_t value = 0;
  for (size_t i = pos_; i < pos_ + width; ++i) {
    const char c = text_[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return Malformed(StrCat("expected ", width, " hex digits"));
    }
    value = value << 4 | digit;
  }
  pos_ += width;
  return value;
}

Result<std::string_view> CodecReader::Sized(uint64_t cap) {
  CodecReader length = *this;
  RELCOMP_ASSIGN_OR_RETURN(const uint64_t len, length.U64());
  RELCOMP_RETURN_NOT_OK(length.Expect(":"));
  if (len > cap) {
    return Malformed(StrCat("segment length ", len, " exceeds the cap ", cap));
  }
  if (len > text_.size() - length.pos_) {
    return Malformed(StrCat("segment length ", len, " runs past the end"));
  }
  pos_ = length.pos_ + static_cast<size_t>(len);
  return text_.substr(length.pos_, static_cast<size_t>(len));
}

Status CodecReader::Expect(std::string_view literal) {
  if (!Accept(literal)) {
    return Malformed(StrCat("expected \"", literal, "\""));
  }
  return Status::OK();
}

bool CodecReader::Accept(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

Result<char> CodecReader::Char() {
  if (at_end()) return Malformed("truncated");
  return text_[pos_++];
}

Status CodecReader::End() const {
  return at_end() ? Status::OK() : Malformed("trailing bytes");
}

void AppendSized(std::string_view bytes, std::string* out) {
  out->append(std::to_string(bytes.size()));
  out->push_back(':');
  out->append(bytes);
}

std::string Hex(uint64_t value, size_t width) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(width, '0');
  for (size_t i = width; i-- > 0 && value != 0; value >>= 4) {
    out[i] = kDigits[value & 0xF];
  }
  return out;
}

void PutU32Le(uint32_t value, std::string* out) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

uint32_t GetU32Le(const char* bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes);
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint32_t Crc32(std::string_view data) {
  // Slicing-by-8: t[k][b] is the CRC of byte b followed by k zero
  // bytes, so eight input bytes fold in through eight independent
  // lookups instead of a chain of eight dependent ones.
  static const auto t = [] {
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = tables[k - 1][i];
        tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
      }
    }
    return tables;
  }();
  const char* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ GetU32Le(p);
    const uint32_t hi = GetU32Le(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;  // the FNV-1a 64-bit prime
  }
  return h;
}

uint64_t Fnv1aU64(uint64_t h, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  return Fnv1a(h, std::string_view(bytes, sizeof(bytes)));
}

}  // namespace relcomp
