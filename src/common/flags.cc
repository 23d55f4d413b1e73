#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/failpoint.h"
#include "common/simd.h"
#include "common/strings.h"

namespace tj::flags {

Flag Bytes(std::string_view name, std::string_view value,
           std::string_view help, size_t* out) {
  return {name, value, help, [out](std::string_view v) {
            return Accept(ParseByteSize(v, out));
          }};
}

Flag Text(std::string_view name, std::string_view value,
          std::string_view help, std::string* out) {
  return {name, value, help, [out](std::string_view v) {
            *out = std::string(v);
            return Status::OK();
          }};
}

Flag Switch(std::string_view name, std::string_view help, bool* out) {
  return {name, "", help, [out](std::string_view) {
            *out = true;
            return Status::OK();
          }};
}

Flag Threads(int* out) {
  return Number("--threads", "N", "worker threads, <= 1024 (0 = all cores)",
                out, 0, 1024);
}

Flag Support(double* out) {
  return Number("--support", "F",
                "min share of learning pairs an applied transformation "
                "covers, in [0, 1] (default 0.05)",
                out, 0.0, 1.0);
}

Flag Out(std::string* out) {
  return Text("--out", "FILE", "write the results to FILE as CSV", out);
}

Flag SpillDir(std::string* out) {
  return Text("--spill-dir", "DIR",
              "keep table bytes in mmap-backed files under DIR", out);
}

Flag MemoryBudget(size_t* out) {
  return Bytes("--memory-budget", "BYTES",
               "resident cell-byte budget, e.g. 64m; cold bytes are "
               "re-mapped on access. Needs --spill-dir",
               out);
}

Flag Simd() {
  return {"--simd", "scalar|avx2|auto",
          "pin the SIMD kernels (output is identical at every level)",
          [](std::string_view v) {
            simd::SimdLevel level;
            if (!simd::ParseSimdLevel(v, &level)) return Accept(false);
            const simd::SimdLevel installed = simd::SetActiveLevel(level);
            if (installed != level) {
              std::fprintf(stderr, "note: --simd %.*s unsupported; using %s\n",
                           static_cast<int>(v.size()), v.data(),
                           simd::SimdLevelName(installed));
            }
            return Status::OK();
          }};
}

Flag Failpoints() {
  return {"--failpoints", "SPEC",
          "arm fault sites, e.g. 'mmap/sync=p:0.5,errno:EIO' (needs a "
          "-DTJ_FAILPOINTS=ON build)",
          [](std::string_view v) {
            if (failpoint::CompiledIn()) return failpoint::ConfigureFromSpec(v);
            return Status::InvalidArgument("needs a -DTJ_FAILPOINTS=ON build");
          }};
}

FlagTable::FlagTable(std::vector<Flag> rows) : rows_(std::move(rows)) {}

Status FlagTable::Parse(int argc, const char* const* argv,
                        std::vector<std::string>* positional) {
  given_.assign(rows_.size(), false);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      positional->emplace_back(arg);
      continue;
    }
    const auto row = std::find_if(rows_.begin(), rows_.end(),
                                  [&](const Flag& f) { return f.name == arg; });
    if (row == rows_.end()) {
      return Status::InvalidArgument("unknown flag " + std::string(arg));
    }
    std::string_view value;
    if (!row->value.empty()) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(std::string(arg) + " needs a value");
      }
      value = argv[++i];
    }
    const Status set = row->set(value);
    if (!set.ok()) {
      return Status::InvalidArgument(
          "invalid " + std::string(arg) +
          (row->value.empty() ? "" : " value '" + std::string(value) + "'") +
          (set.message().empty() ? "" : ": " + set.message()));
    }
    given_[row - rows_.begin()] = true;
  }
  return Status::OK();
}

Status FlagTable::CheckMode(unsigned mode, std::string_view mode_name) const {
  for (size_t i = 0; i < given_.size(); ++i) {
    if (given_[i] && (rows_[i].modes & mode) == 0) {
      return Status::InvalidArgument(std::string(rows_[i].name) +
                                     " does not apply in " +
                                     std::string(mode_name) + " mode");
    }
  }
  return Status::OK();
}

std::string FlagTable::Usage(
    std::string_view program,
    const std::vector<std::string_view>& synopses) const {
  // Help text is word-wrapped into a column right of the flag names.
  constexpr size_t kHelpColumn = 26;
  constexpr size_t kHelpWidth = 80 - kHelpColumn;
  std::string out;
  for (const std::string_view synopsis : synopses) {
    out += StrPrintf("%s%.*s %.*s\n", out.empty() ? "usage: " : "       ",
                     static_cast<int>(program.size()), program.data(),
                     static_cast<int>(synopsis.size()), synopsis.data());
  }
  out += "flags:\n";
  for (const Flag& flag : rows_) {
    std::string line = StrPrintf(
        "  %.*s %.*s", static_cast<int>(flag.name.size()), flag.name.data(),
        static_cast<int>(flag.value.size()), flag.value.data());
    std::string_view help = flag.help;
    do {
      // Break at the last space that fits, or after an overlong word.
      size_t take = help.size() <= kHelpWidth ? help.size()
                                              : help.rfind(' ', kHelpWidth);
      if (take == std::string_view::npos) {
        take = std::min(help.find(' '), help.size());
      }
      // A name too wide for the column gets a line of its own.
      if (line.size() >= kHelpColumn) out += std::exchange(line, {}) + "\n";
      line.resize(kHelpColumn, ' ');
      out += std::exchange(line, {}).append(help.substr(0, take)) + "\n";
      help = TrimAscii(help.substr(take));
    } while (!help.empty());
  }
  return out;
}

int FlagTable::UsageError(std::string_view program,
                          const std::vector<std::string_view>& synopses,
                          const Status& why) const {
  std::fprintf(stderr, "%s%s%s", why.message().c_str(),
               why.message().empty() ? "" : "\n",
               Usage(program, synopses).c_str());
  return 2;
}

}  // namespace tj::flags
