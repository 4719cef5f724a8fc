// nfs_10k and eafe_10k: full searches back to back, each on its own
// reference table. A warm-up search fills lazy state; repeating it after
// the measured loop must reproduce it bit for bit (DESIGN.md §12).

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "afe/eafe.h"
#include "afe/nfs.h"
#include "common.h"
#include "ml/feature_binner.h"
#include "serve/model_store.h"

namespace perfbench {
namespace {

namespace afe = eafe::afe;

constexpr size_t kMinSearches = 3;
constexpr size_t kMaxSearches = 200;

/// The §12 equivalence contract: every result-bearing field matches
/// (timings and eval_cache_hits are excluded — concurrent evaluations of
/// one signature may both miss the cache without changing any score).
bool BitIdentical(const afe::SearchResult& a, const afe::SearchResult& b) {
  if (a.base_score != b.base_score || a.best_score != b.best_score ||
      a.search_score != b.search_score ||
      a.downstream_evaluations != b.downstream_evaluations ||
      a.features_generated != b.features_generated ||
      a.features_evaluated != b.features_evaluated ||
      a.features_kept != b.features_kept || a.curve.size() != b.curve.size()) {
    return false;
  }
  for (size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].best_score != b.curve[i].best_score ||
        a.curve[i].cumulative_evaluations !=
            b.curve[i].cumulative_evaluations) {
      return false;
    }
  }
  const auto& ca = a.best_dataset.features.columns();
  const auto& cb = b.best_dataset.features.columns();
  if (ca.size() != cb.size() ||
      a.best_dataset.labels != b.best_dataset.labels) {
    return false;
  }
  for (size_t c = 0; c < ca.size(); ++c) {
    if (ca[c].name() != cb[c].name() || ca[c].values() != cb[c].values()) {
      return false;
    }
  }
  return true;
}

/// Search budgets at the benches' defaults, async pipeline.
afe::SearchOptions ReferenceSearchOptions() {
  afe::SearchOptions options;
  options.epochs = 8;
  options.steps_per_agent = 3;
  options.evaluator = ReferenceEvaluator();
  options.seed = 108;
  options.pipeline = afe::PipelineMode::kAsync;
  return options;
}

std::unique_ptr<afe::FeatureSearch> MakeSearch(bool eafe,
                                               const eafe::fpe::FpeModel* fpe) {
  if (!eafe) return std::make_unique<afe::NfsSearch>(ReferenceSearchOptions());
  afe::EafeSearch::Options options;
  options.search = ReferenceSearchOptions();
  options.stage1_epochs = 8;
  options.fpe_model = fpe;
  return std::make_unique<afe::EafeSearch>(options);
}

/// Median duration of the stage-2 epochs (the first curve entry of
/// E-AFE also holds stage 1, so it is skipped on both methods).
double MedianEpochSeconds(const afe::SearchResult& result) {
  std::vector<double> epochs;
  for (size_t i = 1; i < result.curve.size(); ++i) {
    epochs.push_back(result.curve[i].elapsed_seconds -
                     result.curve[i - 1].elapsed_seconds);
  }
  return Median(epochs);
}

/// What the traced loop measured, beyond the spans.
struct LoopFigures {
  double searches = 0;
  double seconds = 0;  ///< Time spent inside Run() calls.
  std::map<std::string, double> before, after;  ///< Gateway snapshots.
  // Medians per search.
  double generated = 0, evaluated = 0, kept = 0, downstream_evals = 0;
  double fits = 0;  ///< Evaluations minus cache hits.
  double generation_frac = 0, eval_cpu_frac = 0, epoch_frac = 0;
  double unaccounted_frac = 0;
  // Totals over the loop.
  double evaluated_total = 0, fits_total = 0, binner_fits = 0;
  double trace_overhead_frac = 0;
};

/// Adds every per-layer metric of the traced run.
void AddLayerMetrics(const LoopFigures& loop, const ProbeCosts& probes,
                     Report* report) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto delta = [&](const std::string& prefix) {
    return SampleDelta(loop.before, loop.after, prefix, "");
  };
  report->Add("bench.failed_frac",
              ratio(static_cast<double>(report->failed),
                    static_cast<double>(report->attempted)),
              "frac");
  report->Add("bench.send_late_p99_ms", probes.serve.send_late_p99_ms, "ms");
  report->Add("bench.trace_overhead_frac", loop.trace_overhead_frac, "frac");

  report->Add("afe.searches", loop.searches, "count");
  report->Add("afe.generated", loop.generated, "count");
  report->Add("afe.evaluated", loop.evaluated, "count");
  report->Add("afe.kept", loop.kept, "count");
  report->Add("afe.downstream_evals", loop.downstream_evals, "count");
  report->Add("afe.fpe_pass_ratio", ratio(loop.evaluated, loop.generated),
              "ratio");
  report->Add("afe.accept_ratio", ratio(loop.kept, loop.evaluated), "ratio");
  report->Add("afe.generation_frac", loop.generation_frac, "frac");
  report->Add("afe.eval_cpu_frac", loop.eval_cpu_frac, "frac");
  report->Add("afe.epoch_frac", loop.epoch_frac, "frac");
  report->Add("afe.unaccounted_frac", loop.unaccounted_frac, "frac");
  report->Add("afe.candidate_build_share",
              loop.evaluated_total * probes.candidate_build_s / loop.seconds,
              "frac");
  report->Add("afe.signature_share",
              loop.evaluated_total * probes.signature_s / loop.seconds, "frac");
  report->Add("ml.fits", loop.fits, "count");
  report->Add("ml.binner_fits_per_eval",
              ratio(loop.binner_fits, loop.fits_total), "ratio");
  report->Add("ml.score_share", loop.fits_total * probes.score_s / loop.seconds,
              "frac");

  // FPE predictions are counted through the CWS-argmin dispatches each
  // one makes (calibrated by the probe), so the count needs no hook in
  // the program.
  const double fpe_calls = ratio(delta("eafe_simd_dispatch_cws_argmin_"),
                                 probes.cws_dispatch_per_predict);
  report->Add("fpe.calls_per_op", fpe_calls / loop.searches, "count");
  report->Add("fpe.predict_share",
              fpe_calls * probes.fpe_predict_s / loop.seconds, "frac");

  const double hits = delta("eafe_cache_hits_total");
  const double misses = delta("eafe_cache_misses_total");
  report->Add("runtime.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  report->Add("runtime.pool_tasks",
              delta("eafe_pool_tasks_total") / loop.searches, "count");
  report->Add("runtime.queue_stall_frac",
              SampleDelta(loop.before, loop.after, "eafe_pipeline",
                          "stall_seconds_sum") /
                  loop.seconds,
              "frac");
  for (const char* kernel : {"cws_argmin", "plain_argmin", "class_counts",
                             "triples", "subtract", "split_scan", "walk"}) {
    for (const char* tier : {"scalar", "avx2"}) {
      const std::string gauge =
          std::string("eafe_simd_dispatch_") + kernel + "_" + tier;
      report->Add(std::string("simd.dispatch.") + kernel + "." + tier,
                  delta(gauge) / loop.searches, "count");
    }
  }

  const ServeFigures& serve = probes.serve;
  report->Add("serve.predict_p50_ms", serve.predict_p50_ms, "ms");
  report->Add("serve.predict_p99_ms", serve.predict_p99_ms, "ms");
  report->Add("serve.server.batches", serve.batches, "count");
  report->Add("serve.server.batch_rows_mean", serve.batch_rows_mean, "rows");
  report->Add("serve.server.queue_depth_max", serve.queue_depth_max, "count");
  report->Add("serve.server.request_share", serve.request_share, "frac");
  report->Add("serve.server.shed", serve.shed, "count");
}

std::string Format(const char* format, double a, double b = 0, double c = 0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, a, b, c);
  return buffer;
}

}  // namespace

void RunSearchWorkload(const Args& args, Tracer* tracer, Report* report) {
  const bool eafe = args.workload == "eafe_10k";
  const char* run_name = eafe ? "EafeSearch::Run" : "NfsSearch::Run";

  // Set-up, repeated so its median is steady: synthesize the warm-up
  // table and, for E-AFE, pretrain the FPE. Every repetition must build
  // the same FPE.
  constexpr int kSetupReps = 7;
  std::vector<double> setup_seconds, setup_cpu;
  eafe::data::Dataset warmup_table;
  eafe::fpe::FpeModel fpe;
  std::string first_fpe_bytes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Tracer::Span span(tracer, "bench", "setup");
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    {
      Tracer::Span synth(tracer, "data", "MakeSynthetic");
      auto made = MakeReferenceTable(args.seed, 0);
      if (!made.ok()) return report->Fail(made.status().ToString());
      warmup_table = std::move(made).ValueOrDie();
    }
    if (eafe) {
      Tracer::Span pretrain(tracer, "fpe", "PretrainFpe");
      auto trained = PretrainReferenceFpe();
      if (!trained.ok()) return report->Fail(trained.status().ToString());
      fpe = std::move(trained).ValueOrDie();
    }
    setup_seconds.push_back(SecondsSince(start));
    setup_cpu.push_back(ProcessCpuSeconds() - cpu_start);
    if (eafe) {
      auto bytes = eafe::serve::SerializeFpe(fpe);
      if (!bytes.ok()) return report->Fail(bytes.status().ToString());
      if (rep == 0) first_fpe_bytes = *bytes;
      if (*bytes != first_fpe_bytes) {
        return report->Fail("FPE pretraining differs between repetitions");
      }
    }
  }

  // The warm-up search fills the process's lazy state (pool, dispatch);
  // it is repeated after the measured loop and must match bit for bit.
  afe::SearchResult warmup;
  {
    Tracer::Span span(tracer, "afe", "warm-up search");
    auto result = MakeSearch(eafe, &fpe)->Run(warmup_table);
    if (!result.ok()) return report->Fail(result.status().ToString());
    warmup = std::move(result).ValueOrDie();
  }

  // Measured loop: one search per table, back to back (a closed loop
  // with one client). A search's cost depends on what it accepts on its
  // table, so every search gets a table of its own and the run reports
  // medians over many tables. A search starts only if it should end
  // inside the budget. In the traced run every other search runs without
  // spans, so the tracing overhead is measured in the same run.
  LoopFigures loop;
  loop.before = GatewaySnapshot();
  const size_t binner_fits_before = eafe::ml::FeatureBinner::TotalFits();
  std::vector<double> durations, traced, untraced, scores, cpu;
  std::vector<double> generated, evaluated, kept, evals, fits;
  std::vector<double> generation_frac, eval_cpu_frac, epoch_frac, unaccounted;
  // The async pipeline runs one filter worker; the rest evaluate.
  const double workers =
      static_cast<double>(args.threads > 1 ? args.threads - 1 : 1);
  const Clock::time_point loop_start = Clock::now();
  while (durations.size() < kMaxSearches) {
    const double elapsed = SecondsSince(loop_start);
    if (durations.size() >= kMinSearches &&
        elapsed + Median(durations) > args.seconds) {
      break;
    }
    auto table = MakeReferenceTable(args.seed, durations.size() + 1);
    if (!table.ok()) return report->Fail(table.status().ToString());
    const bool span_this = args.trace && durations.size() % 2 == 0;
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    eafe::Result<afe::SearchResult> result =
        eafe::Status::Internal("not run");
    {
      Tracer::Span span(span_this ? tracer : nullptr, "afe", run_name);
      result = MakeSearch(eafe, &fpe)->Run(*table);
    }
    const double seconds = SecondsSince(start);
    cpu.push_back(ProcessCpuSeconds() - cpu_start);
    durations.push_back(seconds);
    (span_this ? traced : untraced).push_back(seconds);
    ++report->attempted;
    if (!result.ok()) {
      ++report->failed;
      report->Fail("search failed: " + result.status().ToString());
      continue;
    }
    const afe::SearchResult& r = *result;
    scores.push_back(r.best_score);
    generated.push_back(static_cast<double>(r.features_generated));
    evaluated.push_back(static_cast<double>(r.features_evaluated));
    kept.push_back(static_cast<double>(r.features_kept));
    evals.push_back(static_cast<double>(r.downstream_evaluations));
    generation_frac.push_back(r.generation_seconds / r.total_seconds);
    eval_cpu_frac.push_back(r.evaluation_seconds / (r.total_seconds * workers));
    epoch_frac.push_back(MedianEpochSeconds(r) / r.total_seconds);
    unaccounted.push_back(
        1.0 - (r.generation_seconds + r.evaluation_seconds / workers) /
                  r.total_seconds);
    fits.push_back(
        static_cast<double>(r.downstream_evaluations - r.eval_cache_hits));
    loop.fits_total += fits.back();
    loop.evaluated_total += evaluated.back();
  }
  loop.after = GatewaySnapshot();
  loop.binner_fits = static_cast<double>(
      eafe::ml::FeatureBinner::TotalFits() - binner_fits_before);
  loop.searches = static_cast<double>(durations.size());
  for (const double d : durations) loop.seconds += d;

  {
    Tracer::Span span(tracer, "afe", "repeat of the warm-up search");
    auto repeat = MakeSearch(eafe, &fpe)->Run(warmup_table);
    ++report->attempted;
    if (!repeat.ok() || !BitIdentical(*repeat, warmup)) {
      ++report->failed;
      report->Fail("repeating the warm-up search gave a different result");
    }
  }

  report->Note(Format("search_s %.4f s (median of %.0f searches on as many "
                      "tables), slowest %.4f s",
                      Median(durations), loop.searches,
                      Percentile(durations, 100)));
  report->Note(Format("downstream_evals %.1f count, best_score %.6f score "
                      "(medians over the tables)",
                      Median(evals), Median(scores)));
  report->Note(Format("features generated %.1f, evaluated %.1f, kept %.1f "
                      "(medians)",
                      Median(generated), Median(evaluated), Median(kept)));
  std::string setups = "setup_s samples:";
  for (const double seconds : setup_seconds) {
    setups += " " + std::to_string(seconds);
  }
  report->Note(setups);
  report->Note(Format("cpu: search %.4f s, setup %.4f s (medians)",
                      Median(cpu), Median(setup_cpu)));

  if (!args.trace) {
    report->Add("setup_s", Median(setup_seconds), "s");
    report->Add("search_s", Median(durations), "s");
    report->Add("downstream_evals", Median(evals), "count");
    report->Add("best_score", Median(scores), "score");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  const ProbeCosts probes = RunLayerProbes(args, tracer, report);
  loop.generated = Median(generated);
  loop.evaluated = Median(evaluated);
  loop.kept = Median(kept);
  loop.downstream_evals = Median(evals);
  loop.fits = Median(fits);
  loop.generation_frac = Median(generation_frac);
  loop.eval_cpu_frac = Median(eval_cpu_frac);
  loop.epoch_frac = Median(epoch_frac);
  loop.unaccounted_frac = Median(unaccounted);
  loop.trace_overhead_frac = Median(traced) / Median(untraced) - 1.0;
  for (const double seconds : untraced) report->untraced_seconds += seconds;
  AddLayerMetrics(loop, probes, report);
}

}  // namespace perfbench
