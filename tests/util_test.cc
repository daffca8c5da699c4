#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "io/temp_manager.h"
#include "util/crc32c.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace maxrs {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) differs |= (a2.NextU64() != c.NextU64());
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(10.0, 20.0);
    ASSERT_GE(v, 10.0);
    ASSERT_LT(v, 20.0);
  }
}

TEST(RngTest, UniformU64Unbiased) {
  Rng rng(11);
  int counts[10] = {};
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.UniformU64(10)];
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(counts[b], trials / 10, 500) << "bucket " << b;
  }
}

TEST(RngTest, NormalMomentsLookRight) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",       "--alpha=3",  "--beta", "7",
                        "--gamma",    "--no-delta", "pos1",   "--eps=x y",
                        "positional2"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(9, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetInt("beta", 0), 7);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_FALSE(flags.GetBool("delta", true));
  EXPECT_EQ(flags.GetString("eps", ""), "x y");
  EXPECT_EQ(flags.GetDouble("missing", 2.5), 2.5);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.Reset();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

TEST(TempManagerTest, UniqueNamesAndRelease) {
  auto env = NewMemEnv(512);
  TempFileManager temps(*env, "t");
  std::set<std::string> names;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(names.insert(temps.NewName("x")).second);
  }
  const std::string name = temps.NewName("y");
  ASSERT_TRUE(env->Create(name).ok());
  EXPECT_TRUE(env->Exists(name));
  temps.Release(name);
  EXPECT_FALSE(env->Exists(name));
  temps.Release(name);  // double release is harmless
}

// --- CRC32C -----------------------------------------------------------

// RFC 3720 (iSCSI) Appendix B.4 test vectors, plus the standard check value.
struct CrcVector {
  std::vector<uint8_t> bytes;
  uint32_t crc;
};

std::vector<CrcVector> KnownCrcVectors() {
  std::vector<CrcVector> vectors;
  vectors.push_back({std::vector<uint8_t>(32, 0x00), 0x8A9136AAu});
  vectors.push_back({std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u});
  std::vector<uint8_t> ascending(32), descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  vectors.push_back({ascending, 0x46DD794Eu});
  vectors.push_back({descending, 0x113FDB5Cu});
  const char* check = "123456789";
  vectors.push_back({std::vector<uint8_t>(check, check + 9), 0xE3069283u});
  return vectors;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  return bytes;
}

TEST(Crc32cTest, KnownAnswers) {
  for (const CrcVector& v : KnownCrcVectors()) {
    EXPECT_EQ(Crc32c(v.bytes.data(), v.bytes.size()), v.crc);
    EXPECT_EQ(crc32c_internal::PortableExtend(0, v.bytes.data(), v.bytes.size()),
              v.crc);
  }
}

TEST(Crc32cTest, HardwareKnownAnswers) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 CRC32C instruction on this host";
  }
  for (const CrcVector& v : KnownCrcVectors()) {
    EXPECT_EQ(crc32c_internal::HardwareExtend(0, v.bytes.data(), v.bytes.size()),
              v.crc);
  }
}

TEST(Crc32cTest, HardwareMatchesPortableAtEveryLengthAndOffset) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 CRC32C instruction on this host";
  }
  const std::vector<uint8_t> bytes = RandomBytes(4096 + 8, 17);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : lengths) {
      const uint8_t* p = bytes.data() + offset;
      // A nonzero seed crc too, as Crc32cExtend continues earlier results.
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(crc32c_internal::HardwareExtend(seed, p, n),
                  crc32c_internal::PortableExtend(seed, p, n))
            << "offset " << offset << " length " << n << " seed " << seed;
      }
    }
  }
}

TEST(Crc32cTest, ExtendEqualsWholeBufferAtEverySplit) {
  const std::vector<uint8_t> bytes = RandomBytes(100, 23);
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32c(bytes.data(), split);
    EXPECT_EQ(Crc32cExtend(head, bytes.data() + split, bytes.size() - split),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace maxrs
