#ifndef EAFE_ML_CROSS_VALIDATION_H_
#define EAFE_ML_CROSS_VALIDATION_H_

#include <functional>
#include <memory>

#include "core/status.h"
#include "data/dataframe.h"
#include "ml/model.h"

namespace eafe::ml {

struct CvOptions {
  size_t folds = 5;
  /// Stratify folds by class for classification tasks when every class has
  /// at least `folds` members; falls back to plain K-fold otherwise.
  bool stratified = true;
  uint64_t seed = 1;
};

/// K-fold cross-validated task score (weighted F1 for classification,
/// 1-RAE for regression): fits a fresh model from `factory` on each
/// training fold and scores on its held-out fold; returns the mean.
/// This is the paper's A_T(F, y) feature-set evaluation.
///
/// Folds run concurrently on the global runtime pool (serially when
/// --threads=1), so `factory` may be invoked from several threads at once
/// and must not mutate shared state. Fold assignment and the mean are
/// computed in fold order: results are identical at any thread count.
Result<double> CrossValidateScore(const ModelFactory& factory,
                                  const data::Dataset& dataset,
                                  const CvOptions& options = {});

/// Per-fold scores (same protocol) for callers needing dispersion.
Result<std::vector<double>> CrossValidateScores(
    const ModelFactory& factory, const data::Dataset& dataset,
    const CvOptions& options = {});

/// The same protocol over a frame the caller already binned — with the
/// factory's model's own SharedBinnerModel::BinFrame, possibly widened by
/// FeatureBinner::AppendColumn — so one binning serves several CV runs.
/// Equal, bit for bit, to the dataset overloads on the frame `bins`
/// encodes: folds depend only on (task, labels, options) and a shared-
/// binner fit only on the codes and cuts. Skips Dataset::Validate (the
/// caller validated what it binned). The factory's models must implement
/// SharedBinnerModel.
Result<std::vector<double>> CrossValidateScores(
    const ModelFactory& factory, data::TaskType task,
    const std::vector<double>& labels,
    std::shared_ptr<const FeatureBinner> bins, const CvOptions& options = {});
Result<double> CrossValidateScore(const ModelFactory& factory,
                                  data::TaskType task,
                                  const std::vector<double>& labels,
                                  std::shared_ptr<const FeatureBinner> bins,
                                  const CvOptions& options = {});

}  // namespace eafe::ml

#endif  // EAFE_ML_CROSS_VALIDATION_H_
