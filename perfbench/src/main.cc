// perfbench: the repo benchmark binary (see ../README.md).
//
//   perfbench --workload nfs_10k|eafe_10k --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints human-readable notes, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also
// writes a Chrome trace-event file to --out-dir). Exits 1 when any
// output was wrong. --corrupt-every N flips a bit of every Nth serve
// reply (self-test hook); --describe-inputs prints a digest of the
// generated table and exits.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  const size_t cores =
      std::max<size_t>(std::thread::hardware_concurrency(), 1);
  args->threads = std::min<size_t>(4, cores);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe-inputs") {
      args->describe_inputs = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        args->out_dir = value;
      } else if (flag == "--corrupt-every") {
        args->corrupt_every = std::stoull(value);
      } else {
        *error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload != "nfs_10k" && args->workload != "eafe_10k") {
    *error = "--workload must be nfs_10k or eafe_10k";
    return false;
  }
  if (!(args->seconds > 0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

/// FNV-1a over the generated table, so self-tests can see that the seed
/// reaches the inputs.
int DescribeInputs(const Args& args) {
  auto table = MakeReferenceTable(args.seed);
  if (!table.ok()) return 1;
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&](double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    hash = (hash ^ bits) * 1099511628211ull;
  };
  for (const auto& column : table->features.columns()) {
    for (const double v : column.values()) mix(v);
  }
  for (const double label : table->labels) mix(label);
  std::printf("{\"table_rows\": %zu, \"table_features\": %zu, "
              "\"table_digest\": \"%016llx\"}\n",
              table->num_rows(), table->num_features(),
              static_cast<unsigned long long>(hash));
  return 0;
}

void PrintResult(const Report& report) {
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (args.describe_inputs) return DescribeInputs(args);
  std::filesystem::create_directories(args.out_dir);

  // The gateway is installed before anything instrumented exists (the
  // pool, caches and server capture their instruments at construction)
  // and is never destroyed: pool workers may outlive main.
  eafe::runtime::SetGlobalMetrics(new eafe::runtime::TextMetricGateway());
  eafe::runtime::SetGlobalThreads(args.threads);

  Tracer tracer(args.trace, args.seed);
  Report report;
  const Clock::time_point start = Clock::now();
  {
    Tracer::Span root(&tracer, "bench", args.workload.c_str());
    RunSearchWorkload(args, &tracer, &report);
  }
  if (args.trace) {
    AddSelfTimeMetrics(tracer, SecondsSince(start), &report);
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    if (tracer.WriteChromeTrace(path, &error)) {
      report.Note("chrome trace: " + path);
    } else {
      report.Fail(error);
    }
  }
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.Fail("metric " + m.name + " is not finite");
    }
  }
  report.Note("threads " + std::to_string(args.threads) + ", workload " +
              args.workload + ", seed " + std::to_string(args.seed));
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  PrintResult(report);
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
