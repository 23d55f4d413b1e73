// Seeded mutation fuzzing of the input grammars: the CSV reader, the
// signature cache, the rule file, the failpoint spec, ParseByteSize, and
// the daemon's JSON parser and frame reader.
// Each test mutates valid seed inputs (byte flips, inserts, deletes,
// splices, and digit runs grown until they overflow) for a fixed number of
// iterations and checks a property that must hold for every input, valid
// or not. Runs are deterministic; a failure names the seed, the iteration
// and the input, so it replays exactly.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/serialization.h"
#include "core/transformation.h"
#include "corpus/catalog.h"
#include "datagen/corpus.h"
#include "serve/protocol.h"
#include "table/csv.h"

namespace tj {
namespace {

constexpr uint64_t kSeed = 0x74'6a'66'75'7a'7aULL;  // "tjfuzz"

/// Bytes that matter to the grammars, drawn more often than uniform bytes.
constexpr std::string_view kInteresting = "\"',;:=()<>\\\n\r\t x-+.0123456789";

class Mutator {
 public:
  explicit Mutator(std::vector<std::string> seeds)
      : seeds_(std::move(seeds)), rng_(kSeed) {}

  /// A seed with one to four mutations applied.
  std::string Next() {
    std::string s = rng_.PickOne(seeds_);
    const uint64_t rounds = 1 + rng_.Uniform(4);
    for (uint64_t r = 0; r < rounds; ++r) Mutate(&s);
    return s;
  }

  Rng& rng() { return rng_; }

 private:
  size_t Pos(const std::string& s) { return rng_.Uniform(s.size() + 1); }

  char Byte() {
    return rng_.Bernoulli(0.7) ? rng_.PickChar(kInteresting)
                               : static_cast<char>(rng_.Uniform(256));
  }

  void Mutate(std::string* s) {
    switch (rng_.Uniform(5)) {
      case 0:  // flip one bit
        if (!s->empty()) {
          (*s)[rng_.Uniform(s->size())] ^=
              static_cast<char>(1u << rng_.Uniform(8));
        }
        break;
      case 1:  // insert a byte
        s->insert(Pos(*s), 1, Byte());
        break;
      case 2: {  // delete up to 8 bytes
        const size_t at = Pos(*s);
        s->erase(at, 1 + rng_.Uniform(8));
        break;
      }
      case 3: {  // splice in a slice of another seed
        const std::string& other = rng_.PickOne(seeds_);
        const size_t from = rng_.Uniform(other.size() + 1);
        const size_t len = rng_.Uniform(other.size() - from + 1);
        s->insert(Pos(*s), other, from, len);
        break;
      }
      default: {  // grow a digit run past every integer width
        size_t at = Pos(*s);
        for (size_t i = 0; i < s->size(); ++i) {
          const size_t j = (at + i) % s->size();
          if ((*s)[j] >= '0' && (*s)[j] <= '9') {
            at = j;
            break;
          }
        }
        s->insert(at, 10 + rng_.Uniform(15), static_cast<char>('1' + rng_.Uniform(9)));
        break;
      }
    }
  }

  std::vector<std::string> seeds_;
  Rng rng_;
};

/// Mutates the seeds `iterations` times and runs `check` on each mutant.
/// `check` asserts the target's property and sets *accepted when the
/// parser took the input. A failure, or an exception escaping a parser
/// (none may throw), names the seed, iteration and input to replay.
template <typename Check>
void Fuzz(std::vector<std::string> seeds, int iterations, Check check) {
  Mutator mutator(std::move(seeds));
  int accepted = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::string input = mutator.Next();
    SCOPED_TRACE("seed " + std::to_string(kSeed) + " iteration " +
                 std::to_string(i) + " input '" + EscapeForDisplay(input) +
                 "'");
    bool ok = false;
    try {
      check(input, &mutator.rng(), &ok);
    } catch (const std::exception& e) {
      FAIL() << "exception: " << e.what();
    }
    if (::testing::Test::HasFatalFailure()) return;
    accepted += ok ? 1 : 0;
  }
  // A fuzzer whose mutants are all accepted or all rejected checks only
  // half of its property.
  std::printf("%d of %d mutants accepted\n", accepted, iterations);
  EXPECT_GT(accepted, iterations / 50);
  EXPECT_LT(accepted, iterations - iterations / 50);
}

void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column(c).name(), b.column(c).name());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.column(c).Get(r), b.column(c).Get(r)) << c << "," << r;
    }
  }
}

TEST(FuzzParsers, CsvFileReaderMatchesStringReaderAtAnyBlockSize) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("fuzz_parsers_" + std::to_string(::getpid()) + ".csv"))
          .string();
  const std::vector<std::string> seeds = {
      "name,note\r\n\"Smith, John\",\"says \"\"hi\"\"\"\n",
      "a,b,c\nplain,\"multi\nline\ncell\",3\r\nx,,\"\"\n",
      "height,id\n5\"4,1\n6\"1,2\nlast,\"tail, no newline\"",
      "k\n\"\"\n\"a\"\"\"\r\n\r\n",
  };
  Fuzz(seeds, 3000, [&path](const std::string& text, Rng* rng, bool* ok) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    CsvOptions options;
    options.io_block_bytes = 1 + rng->Uniform(64);
    const auto from_string = ReadCsvString(text);
    const auto from_file = ReadCsvFile(path, options);
    ASSERT_EQ(from_string.ok(), from_file.ok())
        << "block " << options.io_block_bytes;
    *ok = from_string.ok();
    if (*ok) {
      ExpectSameTable(*from_string, *from_file);
    }
  });
  std::filesystem::remove(path);
}

TEST(FuzzParsers, SignatureCacheFailsClosedOrRoundTrips) {
  SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 1;
  corpus_options.num_noise_tables = 1;
  corpus_options.rows = 12;
  const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);
  const auto build = [&] {
    TableCatalog catalog;
    for (const Table& table : corpus.tables) {
      EXPECT_TRUE(catalog.AddTable(table).ok());
    }
    return catalog;
  };
  TableCatalog source = build();
  source.ComputeSignatures();
  Fuzz({source.SerializeSignatures()}, 10000,
       [&build](const std::string& text, Rng*, bool* ok) {
         TableCatalog target = build();
         *ok = target.LoadSignatures(text).ok();
         if (!*ok) {
           for (const ColumnRef ref : target.AllColumns()) {
             ASSERT_FALSE(target.HasSignature(ref));
           }
           return;
         }
         const std::string saved = target.SerializeSignatures();
         TableCatalog reloaded = build();
         ASSERT_TRUE(reloaded.LoadSignatures(saved).ok());
         for (const ColumnRef ref : target.AllColumns()) {
           ASSERT_EQ(target.HasSignature(ref), reloaded.HasSignature(ref));
           if (target.HasSignature(ref)) {
             ASSERT_TRUE(target.signature(ref) == reloaded.signature(ref));
           }
         }
         ASSERT_EQ(reloaded.SerializeSignatures(), saved);
       });
}

TEST(FuzzParsers, AcceptedRuleSetIsAFixedPoint) {
  const std::vector<std::string> seeds = {
      "# transform-join rule set\n"
      "<Literal('Dr. '), Split(',',1), Literal('\\x07\\n'), Substr(0,3)>\n"
      "<SplitSubstr(' ',-1,0,2), TwoCharSplitSubstr('(',')',0,1,-1)>\n",
      "<Split('\\'',2)>\n<>\n<Literal('a\\\\b\\tc')>\n",
  };
  const auto serialize = [](const TransformationSet& set) {
    return SerializeTransformations(set.store, set.units, set.ids);
  };
  Fuzz(seeds, 20000,
       [&serialize](const std::string& text, Rng*, bool* ok) {
         const auto parsed = ParseTransformationSet(text);
         *ok = parsed.ok();
         if (!*ok) {
           ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
           return;
         }
         const std::string saved = serialize(*parsed);
         const auto reparsed = ParseTransformationSet(saved);
         ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
         ASSERT_EQ(serialize(*reparsed), saved);
       });
}

TEST(FuzzParsers, RejectedFailpointSpecArmsNothing) {
  const std::vector<std::string> seeds = {
      "mmap/ftruncate=p:0.5,errno:ENOSPC,seed:7;catalog/save-rename=hits:1",
      "mmap/sync;mmap/read=skip:3,errno:28,hits:-1",
      "64m",
      "1024k",
  };
  Fuzz(seeds, 20000, [](const std::string& text, Rng*, bool* ok) {
    failpoint::ClearAll();
    *ok = failpoint::ConfigureFromSpec(text).ok();
    if (!*ok) {
      ASSERT_TRUE(failpoint::ActiveSites().empty());
    }
    size_t bytes = 0;
    (void)ParseByteSize(text, &bytes);  // must simply not abort
  });
  failpoint::ClearAll();
}

TEST(FuzzParsers, AcceptedJsonIsAFixedPoint) {
  const std::vector<std::string> seeds = {
      R"({"op":"joinable","column":"synth00-src.value","top":5})",
      R"({"op":"transform-join","source":"a.name","target":"b.author",)"
      R"("support":0.05})",
      R"({"ok":true,"epoch":3,"results":[{"score":0.91,"rules":)"
      R"(["<Split(',',1)>"]},null,false,-1.5e-3,12345678901234567890]})",
      R"( ["é\u00e9\ud83d\ude00","esc\"\\\/\b\f\n\r\t",[],{},-0,1E300] )",
  };
  Fuzz(seeds, 20000, [](const std::string& text, Rng*, bool* ok) {
    const auto parsed = serve::JsonValue::Parse(text);
    *ok = parsed.ok();
    if (!*ok) {
      ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      return;
    }
    const std::string saved = parsed->Serialize();
    const auto reparsed = serve::JsonValue::Parse(saved);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    ASSERT_EQ(reparsed->Serialize(), saved);
  });
}

/// One frame as the daemon writes it: 4-byte little-endian length, payload.
std::string Frame(std::string_view payload) {
  std::string frame;
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>((payload.size() >> shift) & 0xFF));
  }
  frame.append(payload);
  return frame;
}

TEST(FuzzParsers, ReadFrameFollowsTheFramingOfAnyStream) {
  constexpr size_t kMaxBytes = 32;
  const std::vector<std::string> seeds = {
      Frame(R"({"op":"stats"})") + Frame("") + Frame("[1,2,3]"),
      Frame(R"({"op":"shutdown"})"),
      Frame(std::string(kMaxBytes, 'x')) + Frame("null"),
  };
  Fuzz(seeds, 5000, [](const std::string& stream, Rng*, bool* ok) {
    struct SocketPair {
      int fds[2] = {-1, -1};
      ~SocketPair() {
        for (const int fd : fds) {
          if (fd >= 0) ::close(fd);
        }
      }
    } pair;
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair.fds), 0);
    ASSERT_EQ(::write(pair.fds[1], stream.data(), stream.size()),
              static_cast<ssize_t>(stream.size()));
    ASSERT_EQ(::shutdown(pair.fds[1], SHUT_WR), 0);
    // Walk the stream as ReadFrame must: a clean end between frames is
    // NotFound, a prefix over kMaxBytes InvalidArgument, a cut prefix or
    // payload IOError.
    size_t at = 0;
    for (;;) {
      const size_t left = stream.size() - at;
      uint32_t length = 0;
      for (size_t i = 0; i < 4 && i < left; ++i) {
        length |= static_cast<uint32_t>(
                      static_cast<unsigned char>(stream[at + i]))
                  << (8 * i);
      }
      const StatusCode want =
          left == 0                ? StatusCode::kNotFound
          : left < 4               ? StatusCode::kIOError
          : length > kMaxBytes     ? StatusCode::kInvalidArgument
          : left - 4 < length      ? StatusCode::kIOError
                                   : StatusCode::kOk;
      const auto frame = serve::ReadFrame(pair.fds[0], kMaxBytes);
      ASSERT_EQ(frame.status().code(), want)
          << "at byte " << at << ": " << frame.status().ToString();
      if (!frame.ok()) {
        *ok = want == StatusCode::kNotFound;
        return;
      }
      ASSERT_EQ(*frame, stream.substr(at + 4, length));
      at += 4 + length;
    }
  });
}

}  // namespace
}  // namespace tj
