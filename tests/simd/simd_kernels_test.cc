#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "hashing/weighted_minhash.h"
#include "runtime/metrics.h"
#include "simd/minhash_kernels.h"
#include "simd/portable_math.h"
#include "simd/simd.h"

// Dispatch-equivalence property tests for the src/simd/ kernel layer.
//
// Contract under test (DESIGN.md §9): every kernel's AVX2 tier returns
// results bit-identical to the scalar reference — argmin indices and
// their sampling values. Sizes deliberately include lengths with
// n % 8 != 0 (and < one vector) so remainder handling is covered.
//
// These tests run single-threaded on purpose: tier dispatch is
// process-global state (SetActiveLevel), and the suite flips it.

namespace eafe::simd {
namespace {

constexpr size_t kSizes[] = {1, 3, 7, 8, 9, 31, 100, 1003};
constexpr uint64_t kSeeds[] = {1, 42, 0xDEADBEEF};

bool HaveAvx2() { return LevelSupported(Level::kAvx2); }

#define EAFE_REQUIRE_AVX2()                                         \
  if (!HaveAvx2()) {                                                \
    GTEST_SKIP() << "AVX2 unsupported on this CPU; scalar tier is " \
                    "the only one to test";                         \
  }

// Restores the dispatch tier a test forced via SetActiveLevel.
class LevelGuard {
 public:
  LevelGuard() : saved_(ActiveLevel()) {}
  ~LevelGuard() { SetActiveLevel(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  Level saved_;
};

// Deterministic test data straight from the kernels' own mixer — no
// ambient entropy, reproducible across platforms.
double TestUniform(uint64_t tag, uint64_t i) {
  return Uniform01(/*seed=*/tag, /*slot=*/i, /*element=*/i * 7 + 1,
                   /*stream=*/9);
}

// Weights with ~1/4 exact zeros (zero weights must never win an argmin).
std::vector<double> MakeWeights(size_t n, uint64_t tag) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = TestUniform(tag, i);
    w[i] = u < 0.25 ? 0.0 : u * 10.0;
  }
  if (n > 0 && w[n / 2] == 0.0) w[n / 2] = 0.5;  // >= 1 positive entry.
  return w;
}

std::vector<double> LogsOf(const std::vector<double>& w) {
  std::vector<double> logs(w.size(), 0.0);
  for (size_t i = 0; i < w.size(); ++i) {
    if (w[i] > 0.0) logs[i] = PortableLog(w[i]);
  }
  return logs;
}

TEST(SimdLevelTest, ParseAndNameRoundTrip) {
  Level level = Level::kAvx2;
  EXPECT_TRUE(ParseLevel("scalar", &level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(ParseLevel("avx2", &level));
  EXPECT_EQ(level, Level::kAvx2);
  EXPECT_FALSE(ParseLevel("avx512", &level));
  EXPECT_FALSE(ParseLevel("", &level));
  EXPECT_STREQ(LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
}

TEST(SimdLevelTest, ScalarAlwaysSupportedAndForceable) {
  EXPECT_TRUE(LevelSupported(Level::kScalar));
  LevelGuard guard;
  SetActiveLevel(Level::kScalar);
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  if (HaveAvx2()) {
    SetActiveLevel(Level::kAvx2);
    EXPECT_EQ(ActiveLevel(), Level::kAvx2);
  }
}

TEST(SimdLevelTest, DispatchCountersTrackForcedTier) {
  LevelGuard guard;
  SetActiveLevel(Level::kScalar);
  ResetDispatchCounts();
  const std::vector<double> w = MakeWeights(64, 7);
  const std::vector<double> logs = LogsOf(w);
  (void)CwsArgmin(CwsKernelScheme::kIcws, w.data(), logs.data(), w.size(),
                  11, 0);
  EXPECT_EQ(DispatchCount(Kernel::kCwsArgmin, Level::kScalar), 1u);
  EXPECT_EQ(DispatchCount(Kernel::kCwsArgmin, Level::kAvx2), 0u);

  runtime::TextMetricGateway gateway;
  PublishDispatchCounts(&gateway);
  const std::string text = gateway.TextExposition();
  EXPECT_NE(text.find("eafe_simd_dispatch_cws_argmin_scalar 1"),
            std::string::npos)
      << text;
}

TEST(PortableLogTest, MatchesLibmAcrossMagnitudes) {
  const double xs[] = {1e-308, 4.9e-324,  // Subnormal territory.
                       1e-30,  0.001, 0.5,   0.9999999, 1.0,
                       1.0000001, 2.0,   std::exp(1.0), 1e10, 1e300};
  for (const double x : xs) {
    const double got = PortableLog(x);
    const double want = std::log(x);
    if (want == 0.0) {
      EXPECT_EQ(got, 0.0) << "x=" << x;
    } else {
      EXPECT_NEAR(got / want, 1.0, 1e-11) << "x=" << x;
    }
  }
  EXPECT_TRUE(std::isinf(PortableLog(0.0)));
  EXPECT_LT(PortableLog(0.0), 0.0);
  EXPECT_TRUE(std::isinf(PortableLog(-1.0)));
}

TEST(MinHashKernelTest, CwsArgminTiersAgreeBitwise) {
  EAFE_REQUIRE_AVX2();
  for (const CwsKernelScheme scheme :
       {CwsKernelScheme::kIcws, CwsKernelScheme::kPcws,
        CwsKernelScheme::kCcws}) {
    for (const size_t n : kSizes) {
      for (const uint64_t seed : kSeeds) {
        const std::vector<double> w = MakeWeights(n, seed ^ n);
        const std::vector<double> logs = LogsOf(w);
        for (uint64_t slot = 0; slot < 4; ++slot) {
          const size_t scalar = internal::CwsArgminScalar(
              scheme, w.data(), logs.data(), n, seed, slot);
          const size_t avx2 = internal::CwsArgminAvx2(
              scheme, w.data(), logs.data(), n, seed, slot);
          ASSERT_EQ(scalar, avx2)
              << "scheme=" << static_cast<int>(scheme) << " n=" << n
              << " seed=" << seed << " slot=" << slot;
          ASSERT_LT(scalar, n);
          ASSERT_GT(w[scalar], 0.0) << "zero weight selected";
        }
      }
    }
  }
}

TEST(MinHashKernelTest, NoPositiveWeightReturnsN) {
  const std::vector<double> zeros(13, 0.0);
  const std::vector<double> logs(13, 0.0);
  for (const CwsKernelScheme scheme :
       {CwsKernelScheme::kIcws, CwsKernelScheme::kPcws,
        CwsKernelScheme::kCcws}) {
    EXPECT_EQ(internal::CwsArgminScalar(scheme, zeros.data(), logs.data(),
                                        zeros.size(), 3, 0),
              zeros.size());
    if (HaveAvx2()) {
      EXPECT_EQ(internal::CwsArgminAvx2(scheme, zeros.data(), logs.data(),
                                        zeros.size(), 3, 0),
                zeros.size());
    }
  }
}

TEST(MinHashKernelTest, PlainHashArgminTiersAgree) {
  EAFE_REQUIRE_AVX2();
  for (const size_t n : kSizes) {
    std::vector<size_t> elements(n);
    for (size_t i = 0; i < n; ++i) elements[i] = i * 3 + 1;
    for (const uint64_t seed : kSeeds) {
      for (uint64_t slot = 0; slot < 4; ++slot) {
        EXPECT_EQ(
            internal::PlainHashArgminScalar(nullptr, n, seed, slot),
            internal::PlainHashArgminAvx2(nullptr, n, seed, slot))
            << "identity n=" << n << " seed=" << seed << " slot=" << slot;
        EXPECT_EQ(internal::PlainHashArgminScalar(elements.data(), n, seed,
                                                  slot),
                  internal::PlainHashArgminAvx2(elements.data(), n, seed,
                                                slot))
            << "mapped n=" << n << " seed=" << seed << " slot=" << slot;
      }
    }
  }
}

// End-to-end: the public selection API must return identical signatures
// at every forced tier, for every hash-based scheme.
TEST(MinHashKernelTest, WeightedMinHashSelectTierInvariant) {
  EAFE_REQUIRE_AVX2();
  LevelGuard guard;
  for (const hashing::MinHashScheme scheme :
       {hashing::MinHashScheme::kPlain, hashing::MinHashScheme::kIcws,
        hashing::MinHashScheme::kCcws, hashing::MinHashScheme::kPcws,
        hashing::MinHashScheme::kLicws}) {
    for (const size_t n : {size_t{5}, size_t{64}, size_t{257}}) {
      const std::vector<double> w = MakeWeights(n, 0xABC ^ n);
      SetActiveLevel(Level::kScalar);
      const std::vector<size_t> scalar =
          hashing::WeightedMinHashSelect(scheme, w, 32, 77);
      SetActiveLevel(Level::kAvx2);
      const std::vector<size_t> avx2 =
          hashing::WeightedMinHashSelect(scheme, w, 32, 77);
      EXPECT_EQ(scalar, avx2)
          << hashing::MinHashSchemeToString(scheme) << " n=" << n;
      // Quantization indices must agree too, not just the elements.
      if (scheme != hashing::MinHashScheme::kPlain) {
        for (uint64_t slot = 0; slot < 8; ++slot) {
          SetActiveLevel(Level::kScalar);
          const hashing::CwsSample a =
              hashing::ConsistentSample(scheme, w, slot, 77);
          SetActiveLevel(Level::kAvx2);
          const hashing::CwsSample b =
              hashing::ConsistentSample(scheme, w, slot, 77);
          EXPECT_EQ(a.element, b.element);
          EXPECT_EQ(a.quantization, b.quantization);
        }
      }
    }
  }
}

}  // namespace
}  // namespace eafe::simd
