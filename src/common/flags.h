// Table-driven command-line flags for the CLIs: one row per flag (name,
// value placeholder, help text, setter), strict value parsing, and usage
// text generated from the rows.

#ifndef TJ_COMMON_FLAGS_H_
#define TJ_COMMON_FLAGS_H_

#include <charconv>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace tj::flags {

/// Parses all of `text` as a T in [lo, hi]. Rejects surrounding space,
/// trailing junk ("0,1", "5x"), a sign on an unsigned T, overflow, NaN and
/// out-of-range values; *out is only written on success.
template <typename T>
bool ParseNumber(std::string_view text, std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(lo <= value && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

/// One flag. `set` receives the argument after the name (empty when
/// `value` is empty, i.e. a boolean flag) and rejects it with a non-OK
/// status, whose message (if any) is appended to "invalid --name value".
struct Flag {
  std::string_view name;   // "--threads"
  std::string_view value;  // usage placeholder ("N"); empty = boolean
  std::string_view help;
  std::function<Status(std::string_view)> set;
  /// Bitmask of the tool modes the flag applies to (FlagTable::CheckMode).
  unsigned modes = ~0u;
};

/// OK, or the plain rejection that Parse reports as "invalid --name value".
inline Status Accept(bool ok) {
  return ok ? Status::OK() : Status::InvalidArgument("");
}

template <typename T>
Flag Number(std::string_view name, std::string_view value,
            std::string_view help, T* out, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi) {
  return {name, value, help, [=](std::string_view v) {
            return Accept(ParseNumber(v, lo, hi, out));
          }};
}
/// A byte size with optional k/m/g suffix (ParseByteSize).
Flag Bytes(std::string_view name, std::string_view value,
           std::string_view help, size_t* out);
Flag Text(std::string_view name, std::string_view value,
          std::string_view help, std::string* out);
Flag Switch(std::string_view name, std::string_view help, bool* out);

// The rows both CLIs share.
Flag Threads(int* out);  // [0, 1024]
Flag Support(double* out);  // [0, 1]
Flag Out(std::string* out);
Flag SpillDir(std::string* out);
Flag MemoryBudget(size_t* out);
/// Pins the SIMD dispatch level as soon as it is parsed.
Flag Simd();
/// Arms the fault-injection sites as soon as it is parsed.
Flag Failpoints();

class FlagTable {
 public:
  explicit FlagTable(std::vector<Flag> rows);

  /// Runs each given flag's setter in argv order (so repeated flags are
  /// seen in order) and appends every argument not starting with "--" to
  /// *positional. Fails on an unknown flag, a missing value or a value the
  /// setter rejects.
  Status Parse(int argc, const char* const* argv,
               std::vector<std::string>* positional);
  /// After Parse: rejects the first given flag whose modes exclude `mode`.
  Status CheckMode(unsigned mode, std::string_view mode_name) const;

  /// One "usage:" line per synopsis, then every row in table order.
  std::string Usage(std::string_view program,
                    const std::vector<std::string_view>& synopses) const;
  /// Prints `why` (when it has a message) and the usage to stderr;
  /// returns 2, the tools' exit code for a bad command line.
  int UsageError(std::string_view program,
                 const std::vector<std::string_view>& synopses,
                 const Status& why) const;

 private:
  std::vector<Flag> rows_;
  std::vector<bool> given_;
};

}  // namespace tj::flags

#endif  // TJ_COMMON_FLAGS_H_
