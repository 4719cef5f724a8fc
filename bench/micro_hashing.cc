// Micro-benchmarks (google-benchmark) for the hashing substrate: the
// per-candidate FPE cost is one Compress call, so its throughput bounds
// how many candidates per second the pre-evaluation can filter.

// `--simd` / `--simd-smoke` bypass google-benchmark and emit one JSON
// line per (scheme, rows, tier) for the weighted-MinHash signature
// kernel, timed through the public WeightedMinHashSelect at a forced
// dispatch tier (simd::SetActiveLevel). The smoke variant exits nonzero
// unless the AVX2 tier returns bit-identical signatures and beats the
// scalar tier at rows >= 10k; tools/check.sh runs it in the release
// suite, and BENCH_simd.json snapshots the grid rows.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "hashing/minhash.h"
#include "hashing/sample_compressor.h"
#include "hashing/weighted_minhash.h"
#include "runtime/thread_pool.h"
#include "simd/simd.h"

namespace eafe::hashing {
namespace {

std::vector<double> RandomFeature(size_t n, uint64_t seed = 17) {
  Rng rng(n * 2654435761u + seed);
  std::vector<double> values(n);
  for (double& v : values) v = rng.Normal();
  return values;
}

void BM_Compress(benchmark::State& state, MinHashScheme scheme) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dimension = static_cast<size_t>(state.range(1));
  CompressorOptions options;
  options.scheme = scheme;
  options.dimension = dimension;
  SampleCompressor compressor(options);
  const std::vector<double> feature = RandomFeature(rows);
  for (auto _ : state) {
    auto signature = compressor.Compress(feature);
    benchmark::DoNotOptimize(signature);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}

void RegisterAll() {
  for (MinHashScheme scheme : AllMinHashSchemes()) {
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_Compress/" + MinHashSchemeToString(scheme)).c_str(),
        [scheme](benchmark::State& state) { BM_Compress(state, scheme); });
    bench->Args({256, 48})->Args({1024, 48})->Args({1024, 16});
  }
}

void BM_GeneralizedJaccard(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a = RandomFeature(n, 1);
  std::vector<double> b = RandomFeature(n, 2);
  for (double& v : a) v = std::fabs(v);
  for (double& v : b) v = std::fabs(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeneralizedJaccard(a, b));
  }
}
BENCHMARK(BM_GeneralizedJaccard)->Arg(1024)->Arg(16384);

// --- SIMD dispatch rows (--simd / --simd-smoke) ------------------------

/// Sparse nonnegative weights (~1/4 exact zeros), the shape the
/// thresholded sampling-vector path feeds the argmin kernel.
std::vector<double> SimdWeights(size_t rows) {
  Rng rng(rows * 2654435761u + 5);
  std::vector<double> weights(rows);
  for (double& w : weights) {
    const double u = rng.Uniform(0.0, 1.0);
    w = u < 0.25 ? 0.0 : u * 8.0;
  }
  weights[rows / 2] = 1.0;  // At least one positive entry.
  return weights;
}

/// Best-of-3 signature computation at the currently forced tier.
double TimeSelect(MinHashScheme scheme, const std::vector<double>& weights,
                  size_t dimension, std::vector<size_t>* signature) {
  double best = 0.0;
  for (int r = 0; r < 3; ++r) {
    eafe::Stopwatch timer;
    std::vector<size_t> selected =
        WeightedMinHashSelect(scheme, weights, dimension, 77);
    const double seconds = timer.ElapsedSeconds();
    if (r == 0 || seconds < best) best = seconds;
    if (r == 0) *signature = std::move(selected);
  }
  return best;
}

void PrintSimdRow(MinHashScheme scheme, size_t rows, size_t dimension,
                  const char* level, double seconds, double speedup) {
  std::printf(
      "{\"bench\": \"simd_minhash\", \"scheme\": \"%s\", \"rows\": %zu, "
      "\"dimension\": %zu, \"level\": \"%s\", \"seconds\": %.6f, "
      "\"speedup_vs_scalar\": %.2f}\n",
      MinHashSchemeToString(scheme).c_str(), rows, dimension, level,
      seconds, speedup);
}

int RunSimdRows(bool smoke) {
  // WeightedMinHashSelect fans its slots out over the global pool; pin it
  // to one thread so the rows compare the kernel tiers, not pool scaling.
  runtime::SetGlobalThreads(1);
  const size_t dimension = 48;
  const bool have_avx2 = simd::LevelSupported(simd::Level::kAvx2);
  if (!have_avx2) {
    std::fprintf(stderr,
                 "note: AVX2 unsupported on this CPU — scalar rows only, "
                 "smoke gate vacuous\n");
  }
  bool ok = true;
  for (const MinHashScheme scheme :
       {MinHashScheme::kIcws, MinHashScheme::kCcws}) {
    for (const size_t rows : {size_t{4096}, size_t{16384}}) {
      const std::vector<double> weights = SimdWeights(rows);
      simd::SetActiveLevel(simd::Level::kScalar);
      std::vector<size_t> scalar_sig;
      const double scalar_seconds =
          TimeSelect(scheme, weights, dimension, &scalar_sig);
      PrintSimdRow(scheme, rows, dimension, "scalar", scalar_seconds, 1.0);
      if (!have_avx2) continue;
      simd::SetActiveLevel(simd::Level::kAvx2);
      std::vector<size_t> avx2_sig;
      const double avx2_seconds =
          TimeSelect(scheme, weights, dimension, &avx2_sig);
      const double speedup =
          avx2_seconds > 0.0 ? scalar_seconds / avx2_seconds : 0.0;
      PrintSimdRow(scheme, rows, dimension, "avx2", avx2_seconds, speedup);
      if (avx2_sig != scalar_sig) {
        std::fprintf(stderr,
                     "simd smoke FAILED: %s signatures differ between "
                     "tiers at rows=%zu\n",
                     MinHashSchemeToString(scheme).c_str(), rows);
        ok = false;
      }
      // Acceptance target is >= 1.5x at rows >= 10k; the gate asserts a
      // conservative 1.2x so shared CI hardware doesn't flake.
      if (smoke && rows >= 10000 && speedup < 1.2) {
        std::fprintf(stderr,
                     "simd smoke FAILED: %s avx2 speedup %.2fx < 1.2x at "
                     "rows=%zu\n",
                     MinHashSchemeToString(scheme).c_str(), speedup, rows);
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eafe::hashing

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--simd") == 0) {
      return eafe::hashing::RunSimdRows(/*smoke=*/false);
    }
    if (std::strcmp(argv[i], "--simd-smoke") == 0) {
      return eafe::hashing::RunSimdRows(/*smoke=*/true);
    }
  }
  eafe::hashing::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
