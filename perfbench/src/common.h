#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/dataframe.h"
#include "fpe/fpe_model.h"
#include "ml/evaluator.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where set-up files (model containers) and the Chrome trace go.
  std::string out_dir = ".";
  /// Program worker threads: min(4, cores).
  size_t threads = 4;
  /// Test hook: flip one bit of every Nth serve-probe reply before it
  /// is checked, proving a wrong reply is caught (0 = off).
  uint64_t corrupt_every = 0;
  /// Print a digest of the generated inputs and exit (self-tests).
  bool describe_inputs = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the correctness verdict, the operation counts,
/// the metrics of the requested kind, and human-readable notes.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  /// Traced run: wall time of the operations run without spans (the
  /// tracing-overhead reference), left out of the self-time shares.
  double untraced_seconds = 0.0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Records a correctness failure; the run then exits non-zero.
  void Fail(const std::string& why);
};

// ---- Reference inputs and program configuration ---------------------------

/// A 10,000 x 6 synthetic classification table (the fig9 smoke shape):
/// a sample of one fixed synthetic population, drawn by `seed` and
/// `index`.
eafe::Result<eafe::data::Dataset> MakeReferenceTable(uint64_t seed,
                                                     uint64_t index = 0);

/// Histogram-RF downstream task at the benches' default budgets.
eafe::ml::EvaluatorOptions ReferenceEvaluator();

/// CCWS d=48 FPE pretrained on a fixed public collection. The FPE is a
/// shipped artifact in the paper (pretrained once, reused on every
/// target), so its corpus does not follow the workload seed.
eafe::Result<eafe::fpe::FpeModel> PretrainReferenceFpe();

// ---- Statistics -----------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]); NaN on empty input.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double SecondsSince(Clock::time_point start);
/// CPU time (user + system) of every thread of the process so far.
double ProcessCpuSeconds();
double PeakRssMb();

// ---- Reading the program's metric gateway ---------------------------------

/// Snapshot of the installed global gateway: counter and gauge values by
/// name, histograms as <name>_sum and <name>_count. SIMD dispatch gauges
/// are published first so they are current.
std::map<std::string, double> GatewaySnapshot();

/// Sum of (after - before) over samples whose name starts with `prefix`
/// and ends with `suffix`.
double SampleDelta(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   const std::string& prefix, const std::string& suffix);

// ---- Layer probes (probes.cc, serve_probe.cc) ----------------------------

/// Per-layer figures of the serving path, from the serve probe.
struct ServeFigures {
  double predict_p50_ms = 0;
  double predict_p99_ms = 0;
  double send_late_p99_ms = 0;  ///< How late the generator sent.
  double batches = 0;
  double batch_rows_mean = 0;
  double queue_depth_max = 0;
  double request_share = 0;  ///< Server-side request time / client latency.
  double shed = 0;
};

/// What the probes measured: per-call costs for the share metrics and
/// the serve probe's figures.
struct ProbeCosts {
  double score_s = 0.0;
  double candidate_build_s = 0.0;
  double signature_s = 0.0;
  double fpe_predict_s = 0.0;
  /// CWS-argmin dispatches one FPE prediction makes (0 if unknown).
  double cws_dispatch_per_predict = 0.0;
  ServeFigures serve;
};

/// Times calls into each layer's public functions on the workload's
/// table (the traced run only), runs the serve probe, and adds the
/// per-call metrics.
ProbeCosts RunLayerProbes(const Args& args, Tracer* tracer, Report* report);

/// Serves `table`'s rows and FPE column scorings from an in-process
/// server holding the two containers, open-loop at a fixed rate, and
/// checks every reply against a direct call.
ServeFigures RunServeProbe(const Args& args, const eafe::data::Dataset& table,
                           const std::string& forest_path,
                           const std::string& fpe_path, Tracer* tracer,
                           Report* report);

/// The search workloads: nfs_10k and eafe_10k.
void RunSearchWorkload(const Args& args, Tracer* tracer, Report* report);

/// Adds the per-layer self time of every traced layer, as shares of the
/// run's root span minus the untraced reference operations (whose time
/// would otherwise land in the bench layer).
void AddSelfTimeMetrics(const Tracer& tracer, double run_seconds,
                        Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
