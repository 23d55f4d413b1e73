// Small string helpers shared across the library (ASCII-only by design; the
// paper's transformation units operate on bytes).

#ifndef TJ_COMMON_STRINGS_H_
#define TJ_COMMON_STRINGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace tj {

/// Lowercases one ASCII letter; other bytes pass through. The single shared
/// definition of "lowercase" used by the n-gram index, the row matcher, and
/// the corpus sketches — they must agree byte-for-byte or cached sketches
/// and index lookups diverge.
inline char ToLowerAsciiChar(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Lowercases ASCII letters; other bytes pass through.
std::string ToLowerAscii(std::string_view s);

/// In-place variant over a raw byte range.
void ToLowerAsciiInPlace(char* data, size_t size);
inline void ToLowerAsciiInPlace(std::string* s) {
  ToLowerAsciiInPlace(s->data(), s->size());
}

/// Appends the lowercased bytes of `s` to `*out` without an intermediate
/// allocation; with a reused `out` buffer this is the allocation-free way to
/// lowercase one row at a time.
void AppendLowerAscii(std::string_view s, std::string* out);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimAscii(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// printf-style formatting into a std::string (gcc 12 lacks std::format).
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a string for display, escaping non-printable bytes and quotes
/// (used when pretty-printing transformations and literals). The rule file
/// and the signature cache store names in this form; TextScanner::ParseQuoted
/// is its inverse.
std::string EscapeForDisplay(std::string_view s);

/// Parses all of `text` as a T in [lo, hi]: decimal, or for a floating T
/// also the hex form "%a" writes ("0x1.8p+3", which round-trips exactly).
/// Rejects surrounding space, trailing junk ("0,1", "5x"), a sign on an
/// unsigned T, overflow, NaN and out-of-range values; *out is only written
/// on success. The one number parser of every input grammar.
template <typename T>
bool ParseNumber(std::string_view text, std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi, T* out) {
  T value{};
  const char* first = text.data();
  const char* end = first + text.size();
  std::from_chars_result parsed;
  if constexpr (std::is_floating_point_v<T>) {
    const bool negative = !text.empty() && text[0] == '-';
    const std::string_view hex = text.substr(negative ? 1 : 0);
    if (hex.size() > 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
      // from_chars takes the hex digits without the prefix, and would take
      // a second sign after it ("0x-1p0"), so that is refused here.
      if (hex[2] == '-') return false;
      parsed = std::from_chars(hex.data() + 2, end, value,
                               std::chars_format::hex);
      if (negative) value = -value;
    } else {
      parsed = std::from_chars(first, end, value);
    }
  } else {
    parsed = std::from_chars(first, end, value);
  }
  if (parsed.ec != std::errc() || parsed.ptr != end ||
      !(lo <= value && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

/// A cursor over one line of the quoted-text formats: the rule file, the
/// signature cache and the failpoint spec. Failed reads return
/// InvalidArgument naming the byte offset; nothing throws or aborts.
class TextScanner {
 public:
  explicit TextScanner(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  size_t pos() const { return pos_; }

  /// Skips spaces and tabs.
  void SkipSpace();
  /// Consumes `prefix` if the text continues with it; skips nothing.
  bool Consume(std::string_view prefix);
  /// Skips space, then consumes `word` if a space, a tab or the end of the
  /// text follows it.
  bool ConsumeWord(std::string_view word);
  /// Skips space, then consumes "key=".
  bool ConsumeKey(std::string_view key);
  /// Consumes and returns the bytes before the first byte in `stops` (or
  /// the rest of the text).
  std::string_view TakeUntil(std::string_view stops);
  /// Skips space, then reads a single-quoted string with the
  /// EscapeForDisplay escapes (\n \t \r \' \\ \xHH).
  Result<std::string> ParseQuoted();
  /// Skips space, then reads the number token (the run of [0-9A-Za-z.+-])
  /// through ParseNumber as a T in [lo, hi].
  template <typename T>
  Result<T> Number(std::type_identity_t<T> lo, std::type_identity_t<T> hi) {
    SkipSpace();
    const size_t start = pos_;
    const std::string_view token = TakeNumberToken();
    T value{};
    if (!ParseNumber<T>(token, lo, hi, &value)) {
      return Status::InvalidArgument("bad number '" + std::string(token) +
                                     "' at offset " + std::to_string(start));
    }
    return value;
  }

 private:
  std::string_view TakeNumberToken();

  std::string_view text_;
  size_t pos_ = 0;
};

/// Parses a byte-size spec: a non-negative integer with an optional k/m/g
/// suffix (case-insensitive, powers of 1024; "64m" = 64 MiB). Returns false
/// on malformed input or overflow. Used by the --memory-budget CLI flags.
bool ParseByteSize(std::string_view s, size_t* out);

/// True if `needle` occurs in `haystack` (convenience over find()).
inline bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

/// True if `haystack` contains character `c`.
inline bool ContainsChar(std::string_view haystack, char c) {
  return haystack.find(c) != std::string_view::npos;
}

}  // namespace tj

#endif  // TJ_COMMON_STRINGS_H_
