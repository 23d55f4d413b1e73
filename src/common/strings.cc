#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>

#include "common/simd.h"

namespace tj {

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  ToLowerAsciiInPlace(&out);
  return out;
}

void ToLowerAsciiInPlace(char* data, size_t size) {
  simd::LowerAscii(data, data, size);
}

void AppendLowerAscii(std::string_view s, std::string* out) {
  const size_t base = out->size();
  out->resize(base + s.size());
  // One fused lowercase-copy pass (vectorized under dispatch) instead of
  // copy-then-lower.
  simd::LowerAscii(s.data(), out->data() + base, s.size());
}

std::string_view TrimAscii(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string StrPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    // +1 for the terminating NUL vsnprintf writes.
    std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, fmt,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string EscapeForDisplay(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\'':
        out += "\\'";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (std::isprint(static_cast<unsigned char>(c))) {
          out.push_back(c);
        } else {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x",
                        static_cast<unsigned char>(c));
          out += buf;
        }
    }
  }
  return out;
}

void TextScanner::SkipSpace() {
  while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
}

bool TextScanner::Consume(std::string_view prefix) {
  if (text_.substr(pos_, prefix.size()) != prefix) return false;
  pos_ += prefix.size();
  return true;
}

bool TextScanner::ConsumeWord(std::string_view word) {
  SkipSpace();
  if (text_.substr(pos_, word.size()) != word) return false;
  const size_t after = pos_ + word.size();
  if (after < text_.size() && text_[after] != ' ' && text_[after] != '\t') {
    return false;
  }
  pos_ = after;
  return true;
}

bool TextScanner::ConsumeKey(std::string_view key) {
  SkipSpace();
  if (text_.substr(pos_, key.size()) != key ||
      text_.substr(pos_ + key.size(), 1) != "=") {
    return false;
  }
  pos_ += key.size() + 1;
  return true;
}

std::string_view TextScanner::TakeUntil(std::string_view stops) {
  const size_t start = pos_;
  pos_ = std::min(text_.find_first_of(stops, pos_), text_.size());
  return text_.substr(start, pos_ - start);
}

std::string_view TextScanner::TakeNumberToken() {
  const size_t start = pos_;
  while (!AtEnd()) {
    const char c = text_[pos_];
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '+' && c != '-') {
      break;
    }
    ++pos_;
  }
  return text_.substr(start, pos_ - start);
}

Result<std::string> TextScanner::ParseQuoted() {
  SkipSpace();
  if (!Consume("'")) {
    return Status::InvalidArgument("expected opening quote at offset " +
                                   std::to_string(pos_));
  }
  std::string out;
  while (!AtEnd()) {
    const char c = text_[pos_++];
    if (c == '\'') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (AtEnd()) break;
    const char esc = text_[pos_++];
    switch (esc) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case '\'': out.push_back('\''); break;
      case '\\': out.push_back('\\'); break;
      case 'x': {
        // Exactly two hex digits (EscapeForDisplay writes "\\x%02x").
        const std::string_view hex = text_.substr(pos_, 2);
        unsigned byte = 0;
        const auto [ptr, ec] =
            std::from_chars(hex.data(), hex.data() + hex.size(), byte, 16);
        if (hex.size() != 2 || ec != std::errc() || ptr != hex.data() + 2) {
          return Status::InvalidArgument("bad \\x escape at offset " +
                                         std::to_string(pos_));
        }
        pos_ += 2;
        out.push_back(static_cast<char>(byte));
        break;
      }
      default:
        return Status::InvalidArgument(std::string("unknown escape: \\") +
                                       esc);
    }
  }
  return Status::InvalidArgument("unterminated quoted string");
}

bool ParseByteSize(std::string_view s, size_t* out) {
  s = TrimAscii(s);
  if (s.empty()) return false;
  size_t multiplier = 1;
  const char last = ToLowerAsciiChar(s.back());
  if (last == 'k' || last == 'm' || last == 'g') {
    multiplier = last == 'k' ? (size_t{1} << 10)
                             : last == 'm' ? (size_t{1} << 20)
                                           : (size_t{1} << 30);
    s.remove_suffix(1);
  }
  size_t value = 0;
  if (!ParseNumber<size_t>(s, 0, ~size_t{0} / multiplier, &value)) {
    return false;
  }
  *out = value * multiplier;
  return true;
}

}  // namespace tj
