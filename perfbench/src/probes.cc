// Layer probes of the traced run: each times calls into one layer's
// public functions on the reference table, from the benchmark's own
// code, so a per-layer cost is measured without instrumenting the
// program. The probes run after the workload's measured loop (they move
// the program's counters), on every workload, with their own FPE and
// forest — a workload that bypasses a layer still reports its per-call
// cost, while its share metrics say the workload spent nothing there.
// The serve probe (serve_probe.cc) then serves both containers.

#include <cstdio>
#include <functional>

#include "afe/eval_service.h"
#include "afe/feature_space.h"
#include "afe/search.h"
#include "common.h"
#include "ml/feature_binner.h"
#include "ml/random_forest.h"
#include "serve/flat_model.h"
#include "serve/flat_predictor.h"
#include "serve/model_store.h"

namespace perfbench {
namespace {

/// The forest the serve probe serves and times.
eafe::ml::RandomForest::Options ServeForestOptions() {
  eafe::ml::RandomForest::Options options;
  options.task = eafe::data::TaskType::kClassification;
  options.num_trees = 16;
  options.max_depth = 8;
  options.seed = 11;
  options.split_strategy = eafe::ml::SplitStrategy::kHistogram;
  return options;
}

/// Median seconds of `reps` timed calls; `call` returns false on error.
double TimeCalls(Tracer* tracer, const char* layer, const char* name,
                 int reps, const std::function<bool()>& call,
                 Report* report) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    Tracer::Span span(tracer, layer, name);
    const Clock::time_point start = Clock::now();
    const bool ok = call();
    seconds.push_back(SecondsSince(start));
    if (!ok) {
      report->Fail(std::string("probe ") + layer + " " + name + " failed");
      break;
    }
  }
  return Median(seconds);
}

}  // namespace

ProbeCosts RunLayerProbes(const Args& args, Tracer* tracer, Report* report) {
  namespace afe = eafe::afe;
  namespace serve = eafe::serve;
  ProbeCosts costs;
  Tracer::Span probes_span(tracer, "bench", "layer_probes");

  eafe::data::Dataset table;
  const double synth_s = TimeCalls(
      tracer, "data", "MakeSynthetic", 3,
      [&] {
        auto made = MakeReferenceTable(args.seed);
        if (!made.ok()) return false;
        table = std::move(made).ValueOrDie();
        return true;
      },
      report);
  report->Add("data.synth_s", synth_s, "s");

  eafe::fpe::FpeModel fpe;
  const double pretrain_s = TimeCalls(
      tracer, "fpe", "PretrainFpe", 1,
      [&] {
        auto trained = PretrainReferenceFpe();
        if (!trained.ok()) return false;
        fpe = std::move(trained).ValueOrDie();
        return true;
      },
      report);
  report->Add("fpe.pretrain_s", pretrain_s, "s");
  if (!report->correct) return costs;

  // One candidate, as a search's evaluation path would see it: the frame
  // plus a product of two raw columns.
  afe::FeatureSpace space(table, afe::FeatureSpace::Options());
  eafe::Rng rng(args.seed + 17);
  afe::FeatureSpace::Action action =
      space.MakeAction(0, afe::Operator::kMultiply, &rng);
  action.input_b_group = 1;
  action.input_b = 0;
  auto candidate = space.GenerateCandidate(action);
  if (!candidate.ok()) {
    report->Fail("probe candidate: " + candidate.status().ToString());
    return costs;
  }
  eafe::data::Dataset candidate_table;
  costs.candidate_build_s = TimeCalls(
      tracer, "afe", "BuildCandidateDataset", 15,
      [&] {
        auto built = afe::BuildCandidateDataset(space, *candidate);
        if (!built.ok()) return false;
        candidate_table = std::move(built).ValueOrDie();
        return true;
      },
      report);
  report->Add("afe.candidate_build_s", costs.candidate_build_s, "s");

  const eafe::ml::EvaluatorOptions evaluator_options = ReferenceEvaluator();
  uint64_t signature = 0;  // Folded so the calls have a visible result.
  costs.signature_s = TimeCalls(
      tracer, "afe", "EvaluationSignature", 15,
      [&] {
        signature ^= afe::EvaluationSignature(candidate_table,
                                              evaluator_options);
        return true;
      },
      report);
  report->Add("afe.signature_s", costs.signature_s, "s");

  const eafe::ml::TaskEvaluator evaluator(evaluator_options);
  costs.score_s = TimeCalls(
      tracer, "ml", "TaskEvaluator::Score", 5,
      [&] { return evaluator.Score(candidate_table).ok(); }, report);
  report->Add("ml.score_s", costs.score_s, "s");

  const double binner_s = TimeCalls(
      tracer, "ml", "FeatureBinner::Fit", 9,
      [&] {
        eafe::ml::FeatureBinner binner;
        return binner.Fit(candidate_table.features).ok();
      },
      report);
  report->Add("ml.binner_fit_s", binner_s, "s");

  const std::vector<double>& column = candidate->column.values();
  const double compress_s = TimeCalls(
      tracer, "hashing", "SampleCompressor::Compress", 15,
      [&] { return fpe.compressor().Compress(column).ok(); }, report);
  report->Add("hashing.compress_s", compress_s, "s");

  constexpr int kPredictReps = 15;
  const auto before = GatewaySnapshot();
  costs.fpe_predict_s = TimeCalls(
      tracer, "fpe", "FpeModel::PredictProbability", kPredictReps,
      [&] { return fpe.PredictProbability(column).ok(); }, report);
  costs.cws_dispatch_per_predict =
      SampleDelta(before, GatewaySnapshot(), "eafe_simd_dispatch_cws_argmin_",
                  "") /
      kPredictReps;
  report->Add("fpe.predict_s", costs.fpe_predict_s, "s");

  // Serving: fit the serve forest, round-trip it through a container,
  // and time the flat predictor at batch 1 and 256.
  eafe::ml::RandomForest forest(ServeForestOptions());
  {
    Tracer::Span span(tracer, "ml", "RandomForest::Fit");
    if (!forest.Fit(table.features, table.labels).ok()) {
      report->Fail("probe forest fit");
      return costs;
    }
  }
  const std::string path = args.out_dir + "/probe_forest.eafe";
  {
    Tracer::Span span(tracer, "serve", "SaveModel");
    if (!serve::SaveModel(forest, path).ok()) {
      report->Fail("probe SaveModel " + path);
      return costs;
    }
  }
  serve::LoadedModel loaded;
  const double load_s = TimeCalls(
      tracer, "serve", "LoadModel", 9,
      [&] {
        auto model = serve::LoadModel(path);
        if (!model.ok() || !model->tree.has_value()) return false;
        loaded = std::move(model).ValueOrDie();
        return true;
      },
      report);
  report->Add("serve.load_model_s", load_s, "s");
  if (!report->correct) return costs;
  auto predictor = serve::FlatPredictor::Create(*loaded.tree);
  if (!predictor.ok()) {
    report->Fail("probe FlatPredictor::Create");
    return costs;
  }
  for (const size_t batch : {size_t{1}, size_t{256}}) {
    std::vector<eafe::data::DataFrame> frames;
    for (size_t start = 0;
         start + batch <= table.num_rows() && frames.size() < 32;
         start += 97 * batch) {
      std::vector<size_t> rows(batch);
      for (size_t r = 0; r < batch; ++r) rows[r] = start + r;
      frames.push_back(table.features.SelectRows(rows));
    }
    size_t next = 0;
    const double call_s = TimeCalls(
        tracer, "serve", "FlatPredictor::PredictProba",
        batch == 1 ? 401 : 101,
        [&] {
          return predictor->PredictProba(frames[next++ % frames.size()]).ok();
        },
        report);
    report->Add("serve.flat_predict_row_us.b" + std::to_string(batch),
                call_s * 1e6 / static_cast<double>(batch), "us");
  }
  const std::string fpe_path = args.out_dir + "/probe_fpe.eafe";
  {
    Tracer::Span span(tracer, "serve", "SaveModel");
    if (!serve::SaveModel(fpe, fpe_path).ok()) {
      report->Fail("probe SaveModel " + fpe_path);
      return costs;
    }
  }
  costs.serve = RunServeProbe(args, table, path, fpe_path, tracer, report);
  std::remove(path.c_str());
  std::remove(fpe_path.c_str());
  return costs;
}

}  // namespace perfbench
