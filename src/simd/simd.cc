#include "simd/simd.h"

#include <atomic>
#include <cstdlib>

#include "core/check.h"
#include "runtime/metrics.h"

namespace eafe::simd {
namespace {

constexpr int kNumLevels = 2;

std::atomic<int>& ActiveLevelSlot() {
  // -1 = unresolved; resolved lazily on first ActiveLevel() call.
  static std::atomic<int> slot{-1};
  return slot;
}

std::atomic<uint64_t>& DispatchSlot(Kernel kernel, Level level) {
  static std::atomic<uint64_t>
      counts[static_cast<int>(Kernel::kKernelCount) * kNumLevels];
  return counts[static_cast<size_t>(kernel) * kNumLevels +
                static_cast<size_t>(level)];
}

Level ResolveLevel() {
  const Level probed =
      LevelSupported(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
  const char* env = std::getenv("EAFE_SIMD");
  if (env == nullptr || env[0] == '\0') return probed;
  Level requested;
  if (!ParseLevel(env, &requested)) return probed;
  // A requested tier the CPU lacks degrades to scalar rather than
  // faulting on the first vector instruction.
  return LevelSupported(requested) ? requested : Level::kScalar;
}

}  // namespace

bool LevelSupported(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

Level ActiveLevel() {
  int current = ActiveLevelSlot().load(std::memory_order_relaxed);
  if (current < 0) {
    // Two threads racing the first resolution compute the same value;
    // the store order is immaterial.
    current = static_cast<int>(ResolveLevel());
    ActiveLevelSlot().store(current, std::memory_order_relaxed);
  }
  return static_cast<Level>(current);
}

void SetActiveLevel(Level level) {
  EAFE_CHECK(LevelSupported(level));
  ActiveLevelSlot().store(static_cast<int>(level),
                          std::memory_order_relaxed);
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "?";
}

bool ParseLevel(const std::string& name, Level* out) {
  if (name == "scalar") {
    *out = Level::kScalar;
    return true;
  }
  if (name == "avx2") {
    *out = Level::kAvx2;
    return true;
  }
  return false;
}

uint64_t DispatchCount(Kernel kernel, Level level) {
  return DispatchSlot(kernel, level).load(std::memory_order_relaxed);
}

void ResetDispatchCounts() {
  for (int k = 0; k < static_cast<int>(Kernel::kKernelCount); ++k) {
    for (int l = 0; l < kNumLevels; ++l) {
      DispatchSlot(static_cast<Kernel>(k), static_cast<Level>(l))
          .store(0, std::memory_order_relaxed);
    }
  }
}

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kCwsArgmin:
      return "cws_argmin";
    case Kernel::kPlainArgmin:
      return "plain_argmin";
    case Kernel::kKernelCount:
      break;
  }
  return "?";
}

void PublishDispatchCounts(runtime::MetricGateway* gateway) {
  if (gateway == nullptr) return;
  for (int k = 0; k < static_cast<int>(Kernel::kKernelCount); ++k) {
    for (int l = 0; l < kNumLevels; ++l) {
      const auto kernel = static_cast<Kernel>(k);
      const auto level = static_cast<Level>(l);
      runtime::MetricGauge* gauge = gateway->Gauge(
          std::string("eafe_simd_dispatch_") + KernelName(kernel) + "_" +
              LevelName(level),
          "Kernel dispatches served at this SIMD tier");
      gauge->Set(static_cast<double>(DispatchCount(kernel, level)));
    }
  }
}

namespace internal {

void CountDispatch(Kernel kernel, Level level) {
  DispatchSlot(kernel, level).fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

}  // namespace eafe::simd
