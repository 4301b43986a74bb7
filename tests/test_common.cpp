// Unit tests for the common utilities: CLI parsing, table/CSV output,
// deterministic RNG, log-level parsing and CRC-32.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

using namespace ftr;

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1", "--gamma=x", "pos2"};
  const Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get("gamma", ""), "x");
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.positional()[1], "pos2");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, ParsesIntLists) {
  const char* argv[] = {"prog", "--cores=19,38,76"};
  const Cli cli(2, argv);
  EXPECT_EQ(cli.get_int_list("cores", {}), (std::vector<long>{19, 38, 76}));
  EXPECT_EQ(cli.get_int_list("other", {1, 2}), (std::vector<long>{1, 2}));
}

TEST(Cli, BoolForms) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=false"};
  const Cli cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(Table, PrintsAlignedMarkdown) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"x,y", "quo\"te"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quo\"\"te\""), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 3), "3.14");
  EXPECT_EQ(Table::num(std::nan("")), "-");
  EXPECT_EQ(Table::num(42L), "42");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.row(0).size(), 3u);
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SplitStreamsDiffer) {
  Xoshiro256 root(9);
  Xoshiro256 s1 = root.split(1);
  Xoshiro256 s2 = root.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += s1() == s2() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.bounded(13);
    EXPECT_LT(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 13u);  // all residues hit over 1000 draws
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(21);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Logging, ParseLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("TRACE"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("Error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::Warn);
}

TEST(Logging, EnabledRespectsThreshold) {
  Logger& log = Logger::instance();
  const LogLevel saved = log.level();
  log.set_level(LogLevel::Warn);
  EXPECT_FALSE(log.enabled(LogLevel::Debug));
  EXPECT_TRUE(log.enabled(LogLevel::Error));
  log.set_level(saved);
}

// ---------------------------------------------------------------------------
// CRC-32: known-answer vectors, and both paths (the dispatched crc32, which
// folds with PCLMULQDQ where the CPU has it, and the slicing-by-8
// crc32_portable) against a plain bytewise reference, so stored checkpoint
// and buddy CRCs stay compatible.

namespace {

/// Bytewise reference implementation (the pre-slicing-by-8 loop).
std::uint32_t crc32_bytewise(const void* data, std::size_t n, std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<unsigned char> buf(n);
  for (auto& b : buf) b = static_cast<unsigned char>(rng() >> 56);
  return buf;
}

}  // namespace

TEST(Crc32, KnownAnswerVectors) {
  // RFC 3720 appendix / zlib's documented CRC-32 check value.
  for (const auto f : {&crc32, &crc32_portable}) {
    EXPECT_EQ(f("123456789", 9, 0), 0xCBF43926u);
    EXPECT_EQ(f("", 0, 0), 0x00000000u);
    EXPECT_EQ(f("a", 1, 0), 0xE8B7BE43u);
    EXPECT_EQ(f("abc", 3, 0), 0x352441C2u);
    EXPECT_EQ(f("The quick brown fox jumps over the lazy dog", 43, 0), 0x414FA339u);
  }
  // 64 bytes and more reach the folding path where the CPU has PCLMULQDQ.
  const std::string zeros(64, '\0');
  EXPECT_EQ(crc32(zeros.data(), zeros.size()), 0x758D6336u);
}

TEST(Crc32, MatchesBytewiseReferenceAtAllLengths) {
  // Every length across the slicing and 16-byte folding boundaries and the
  // 64-byte folding threshold, block multiples plus and minus one, and a
  // 32 KiB `overlap` replica payload plus one word (so the fold leaves a
  // tail), each from every offset within a 16-byte block.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n : {1023ul, 1024ul, 1025ul, 4096ul, 32776ul}) lengths.push_back(n);
  const auto buf = random_bytes(32776 + 16, 1);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t n : lengths) {
      const unsigned char* p = buf.data() + off;
      const std::uint32_t want = crc32_bytewise(p, n);
      EXPECT_EQ(crc32(p, n), want) << "offset " << off << " length " << n;
      EXPECT_EQ(crc32_portable(p, n), want) << "offset " << off << " length " << n;
    }
  }
}

TEST(Crc32, IncrementalChainingMatchesWholeBuffer) {
  const auto buf = random_bytes(300, 2);
  for (const std::uint32_t seed : {0x00000001u, 0xFFFFFFFFu, 0x12345678u, 0xCBF43926u}) {
    for (std::size_t n : {0ul, 7ul, 64ul, 65ul, 200ul, 300ul}) {
      const std::uint32_t want = crc32_bytewise(buf.data(), n, seed);
      EXPECT_EQ(crc32(buf.data(), n, seed), want) << "seed " << seed << " length " << n;
      EXPECT_EQ(crc32_portable(buf.data(), n, seed), want) << "seed " << seed;
    }
  }
  // Splitting the 300-byte buffer at any point and chaining the two halves
  // gives the whole buffer's CRC, whichever path each half takes.
  const std::uint32_t whole = crc32_bytewise(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = crc32(buf.data(), split);
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole) << "split " << split;
    EXPECT_EQ(crc32_portable(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32, RandomOffsetLengthSeedTriplesMatchBytewiseReference) {
  const auto buf = random_bytes(8192 + 16, 3);
  Xoshiro256 rng(4);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t off = rng() % 16;
    const std::size_t n = rng() % 4097;
    const auto seed = static_cast<std::uint32_t>(rng());
    const unsigned char* p = buf.data() + off;
    ASSERT_EQ(crc32(p, n, seed), crc32_bytewise(p, n, seed))
        << "offset " << off << " length " << n << " seed " << seed;
  }
}
