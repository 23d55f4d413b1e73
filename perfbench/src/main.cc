// perfbench: the repository benchmark. One run measures one workload:
//
//   perfbench --workload corpus_discover|corpus_ingest|serve_mixed
//             --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload twice for S/2 seconds each, untraced then traced, and
// reports the per-layer metrics of the traced phase plus the tracing
// overhead (traced minus untraced) of every end-to-end metric. It reports
// only the layers the workload reaches; run.py adds the others as 0. The
// last line of stdout is the JSON result; the exit code is nonzero when
// any correctness gate fails.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

std::string g_workdir = ".bench_build/work";

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload corpus_discover|corpus_ingest|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--workdir DIR]\n");
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

/// Hash of this executable, so recorded counters are only compared against
/// runs of the same build.
uint64_t ExecutableHash() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::vector<char> buffer(1 << 16);
  uint64_t h = kFnvBasis;
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
    h = Fnv(h, buffer.data(), static_cast<size_t>(in.gcount()));
  }
  return h;
}

/// The exact work counters must repeat across runs of one build and seed
/// (and scope): the first run records them, every later run compares.
void CheckRecordedCounters(const Args& args, const Outcome& o,
                           std::vector<std::string>* failures) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(WorkDir()) / "counters";
  std::error_code ec;
  fs::create_directories(dir, ec);
  char name[200];
  std::snprintf(name, sizeof name, "%s-seed%llu%s%s-%016llx.txt",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                o.counters_scope.empty() ? "" : "-",
                o.counters_scope.c_str(),
                static_cast<unsigned long long>(ExecutableHash()));
  std::ostringstream now;
  for (const auto& [key, value] : o.counters) {
    now << key << ' ' << value << '\n';
  }
  const fs::path path = dir / name;
  std::ifstream existing(path);
  if (existing) {
    std::stringstream before;
    before << existing.rdbuf();
    if (before.str() != now.str()) {
      failures->push_back("exact work counters differ from an earlier run "
                          "with the same seed (" + path.string() + ")");
    }
    return;
  }
  std::ofstream(path) << now.str();
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

const std::string& WorkDir() { return g_workdir; }

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ShareWithin(const std::vector<double>& values, double limit,
                   uint64_t failed) {
  const double total = static_cast<double>(values.size() + failed);
  if (total == 0) return 0.0;
  const auto within = std::count_if(values.begin(), values.end(),
                                    [&](double v) { return v <= limit; });
  return static_cast<double>(within) / total;
}

double PeakRssMb() {
  // VmHWM, which ResetPeakRss() restarts (getrusage's maximum keeps what
  // exited threads saw).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

void AddSelfTimeMetrics(const std::vector<SpanRecord>& spans,
                        const std::vector<std::string>& names, double units,
                        Metrics* layers) {
  const auto self = SelfTimesNs(spans);
  std::map<std::string, double> total_ns;
  for (const std::string& name : names) total_ns[name] = 0;
  for (const SpanRecord& s : spans) {
    auto it = total_ns.find(s.name);
    if (it != total_ns.end()) it->second += static_cast<double>(self.at(s.id));
  }
  for (const auto& [name, ns] : total_ns) {
    (*layers)[name + "_ms"] = {units > 0 ? ns / 1e6 / units : 0.0, "ms"};
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &args.seed)) return Usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      uint64_t s = 0;
      if (!ParseU64(value, &s) || s == 0 || s > 60) return Usage();
      args.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--workdir") {
      g_workdir = value;
    } else {
      return Usage();
    }
  }
  WorkloadFn run = nullptr;
  if (args.workload == "corpus_discover") run = RunCorpusDiscover;
  if (args.workload == "corpus_ingest") run = RunCorpusIngest;
  if (args.workload == "serve_mixed") run = RunServeMixed;
  if (run == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(WorkDir(), ec);

  // Each phase also reports the process-wide end-to-end figures, the peak
  // RSS since the phase began among them.
  const auto measure = [&](double seconds, bool traced) {
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "cannot reset the peak RSS; peak_rss_mb of a "
                           "later phase includes the earlier ones\n");
    }
    Outcome o = run(args, seconds, traced);
    const auto attempted =
        static_cast<double>(std::max<uint64_t>(o.attempted, 1));
    const auto failed =
        static_cast<double>(o.failed + o.gate_failures.size());
    o.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
    o.end_to_end["success_share"] = {1.0 - failed / attempted, "share"};
    return o;
  };

  Outcome result;
  Metrics metrics;
  if (!args.trace) {
    result = measure(args.seconds, /*traced=*/false);
    metrics = result.end_to_end;
  } else {
    const Outcome plain = measure(args.seconds / 2, /*traced=*/false);
    result = measure(args.seconds / 2, /*traced=*/true);
    if (plain.counters != result.counters) {
      result.gate_failures.push_back(
          "exact work counters differ between the traced and untraced "
          "phases");
    }
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.gate_failures.insert(result.gate_failures.end(),
                                plain.gate_failures.begin(),
                                plain.gate_failures.end());
    metrics = result.layers;
    for (const auto& [name, traced] : result.end_to_end) {
      metrics["overhead." + name] = {
          traced.value - plain.end_to_end.at(name).value, traced.unit};
    }
    metrics["trace.spans"] = {static_cast<double>(result.spans.size()),
                              "count"};
    char name[128];
    std::snprintf(name, sizeof name, "/trace-%s-seed%llu.json",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed));
    if (!WriteChromeTrace(result.spans, WorkDir() + name)) {
      std::fprintf(stderr, "cannot write %s%s\n", WorkDir().c_str(), name);
    }
  }
  CheckRecordedCounters(args, result, &result.gate_failures);

  for (const std::string& failure : result.gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", failure.c_str());
  }
  result.failed += result.gate_failures.size();
  result.attempted = std::max<uint64_t>(result.attempted, 1);
  const bool correct = result.gate_failures.empty() && result.failed == 0;
  PrintResult(correct, result.attempted, result.failed, metrics);
  return correct ? 0 : 1;
}
