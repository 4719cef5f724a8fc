#include "ml/cross_validation.h"

#include <map>
#include <memory>
#include <utility>

#include "core/rng.h"
#include "data/split.h"
#include "ml/feature_binner.h"
#include "ml/metrics.h"
#include "runtime/thread_pool.h"

namespace eafe::ml {
namespace {

/// The fold partition, drawn serially from `options.seed`.
Result<std::vector<data::Fold>> MakeFolds(data::TaskType task,
                                          const std::vector<double>& labels,
                                          const CvOptions& options) {
  if (options.folds < 2) {
    return Status::InvalidArgument("cross-validation needs >= 2 folds");
  }
  Rng rng(options.seed);

  bool use_stratified =
      options.stratified && task == data::TaskType::kClassification;
  if (use_stratified) {
    std::map<int, size_t> class_counts;
    for (double label : labels) {
      ++class_counts[static_cast<int>(label)];
    }
    for (const auto& [cls, count] : class_counts) {
      (void)cls;
      if (count < options.folds) {
        use_stratified = false;
        break;
      }
    }
  }
  if (use_stratified) {
    return data::StratifiedKFoldIndices(labels, options.folds, &rng);
  }
  return data::KFoldIndices(labels.size(), options.folds, &rng);
}

/// Runs every fold and collects the per-fold scores. With `bins` set,
/// each fold trains on a row-id view of the shared codes and scores its
/// held-out rows by id; otherwise it materializes its train and test
/// rows of `dataset`.
///
/// Folds are independent given the (serially drawn) index partition, so
/// they fan out across the global pool: each fold writes only its own
/// slot and errors are reported in fold order, keeping results identical
/// at any thread count. Model training inside a fold that parallelizes
/// through the same pool (e.g. per-tree forest fitting) runs inline on
/// the worker instead of oversubscribing.
Result<std::vector<double>> RunFolds(
    const ModelFactory& factory, data::TaskType task,
    const std::vector<double>& labels,
    const std::shared_ptr<const FeatureBinner>& bins,
    const data::Dataset* dataset, const std::vector<data::Fold>& folds) {
  std::vector<double> scores(folds.size(), 0.0);
  std::vector<Status> statuses(folds.size());
  auto run_fold = [&](size_t i) -> Status {
    std::unique_ptr<Model> model = factory();
    if (model == nullptr) {
      return Status::Internal("model factory returned null");
    }
    std::vector<double> predicted;
    std::vector<double> test_labels;
    if (bins != nullptr) {
      auto* shared = dynamic_cast<SharedBinnerModel*>(model.get());
      if (shared == nullptr) {
        return Status::FailedPrecondition(
            "pre-binned cross-validation needs a shared-binner model");
      }
      EAFE_RETURN_NOT_OK(shared->FitBinned(bins, labels, folds[i].train));
      EAFE_ASSIGN_OR_RETURN(predicted,
                            shared->PredictBinnedRows(folds[i].test));
      test_labels.reserve(folds[i].test.size());
      for (size_t row : folds[i].test) {
        test_labels.push_back(labels[row]);
      }
    } else {
      const data::Dataset train = dataset->SelectRows(folds[i].train);
      const data::Dataset test = dataset->SelectRows(folds[i].test);
      EAFE_RETURN_NOT_OK(model->Fit(train.features, train.labels));
      EAFE_ASSIGN_OR_RETURN(predicted, model->Predict(test.features));
      test_labels = test.labels;
    }
    scores[i] = TaskScore(task, test_labels, predicted);
    return Status::OK();
  };
  runtime::ParallelFor(runtime::GlobalPool(), folds.size(),
                       [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           statuses[i] = run_fold(i);
                         }
                       });
  for (const Status& status : statuses) {
    EAFE_RETURN_NOT_OK(status);
  }
  return scores;
}

double Mean(const std::vector<double>& scores) {
  double sum = 0.0;
  for (double s : scores) sum += s;
  return sum / static_cast<double>(scores.size());
}

}  // namespace

Result<std::vector<double>> CrossValidateScores(const ModelFactory& factory,
                                                const data::Dataset& dataset,
                                                const CvOptions& options) {
  EAFE_RETURN_NOT_OK(dataset.Validate());
  EAFE_ASSIGN_OR_RETURN(std::vector<data::Fold> folds,
                        MakeFolds(dataset.task, dataset.labels, options));

  // When the model can train through a shared pre-binned frame (probed
  // via SharedBinnerModel), the frame is binned exactly once here, before
  // the fold fan-out: every fold fits on a row-id view of the same codes
  // and scores its held-out rows by id — no fold materialization, no
  // per-fold re-binning. Models without the capability (or configurations
  // that decline it, e.g. the exact split strategy) take the materialized
  // path.
  std::shared_ptr<const FeatureBinner> bins;
  {
    std::unique_ptr<Model> probe = factory();
    if (probe == nullptr) {
      return Status::Internal("model factory returned null");
    }
    if (const auto* capable = dynamic_cast<const SharedBinnerModel*>(
            probe.get())) {
      EAFE_ASSIGN_OR_RETURN(bins, capable->BinFrame(dataset.features));
    }
  }
  return RunFolds(factory, dataset.task, dataset.labels, bins, &dataset,
                  folds);
}

Result<std::vector<double>> CrossValidateScores(
    const ModelFactory& factory, data::TaskType task,
    const std::vector<double>& labels,
    std::shared_ptr<const FeatureBinner> bins, const CvOptions& options) {
  if (bins == nullptr || !bins->fitted()) {
    return Status::InvalidArgument("pre-binned cross-validation needs bins");
  }
  EAFE_ASSIGN_OR_RETURN(std::vector<data::Fold> folds,
                        MakeFolds(task, labels, options));
  return RunFolds(factory, task, labels, bins, nullptr, folds);
}

Result<double> CrossValidateScore(const ModelFactory& factory,
                                  const data::Dataset& dataset,
                                  const CvOptions& options) {
  EAFE_ASSIGN_OR_RETURN(std::vector<double> scores,
                        CrossValidateScores(factory, dataset, options));
  return Mean(scores);
}

Result<double> CrossValidateScore(const ModelFactory& factory,
                                  data::TaskType task,
                                  const std::vector<double>& labels,
                                  std::shared_ptr<const FeatureBinner> bins,
                                  const CvOptions& options) {
  EAFE_ASSIGN_OR_RETURN(
      std::vector<double> scores,
      CrossValidateScores(factory, task, labels, std::move(bins), options));
  return Mean(scores);
}

}  // namespace eafe::ml
