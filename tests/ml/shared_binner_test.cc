#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <vector>

#include "data/dataframe.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/evaluator.h"
#include "ml/feature_binner.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "runtime/thread_pool.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::LabelAccuracy;
using testing::MakeBlobs;
using testing::MakeXor;

/// Classification data whose values live on a small integer grid. Every
/// column has exactly `grid` distinct values, so with n large every
/// bootstrap sample contains all of them and a per-tree binner computes
/// the same cuts as the shared full-frame binner — the basis of the
/// shared-vs-per-tree identity test.
data::Dataset MakeQuantized(size_t n, size_t columns, uint64_t seed,
                            size_t grid = 5) {
  Rng rng(seed);
  data::Dataset dataset;
  dataset.name = "quantized";
  dataset.task = data::TaskType::kClassification;
  std::vector<std::vector<double>> values(columns, std::vector<double>(n));
  dataset.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (size_t c = 0; c < columns; ++c) {
      values[c][i] = static_cast<double>(rng.UniformInt(grid)) -
                     static_cast<double>(grid / 2);
      sum += (c % 2 == 0 ? 1.0 : -1.0) * values[c][i];
    }
    dataset.labels[i] = sum > 0.0 ? 1.0 : 0.0;
  }
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_TRUE(dataset.features
                    .AddColumn(data::Column("q" + std::to_string(c),
                                            std::move(values[c])))
                    .ok());
  }
  return dataset;
}

/// Wide continuous classification data (p columns) for the
/// feature-parallel histogram build path.
data::Dataset MakeWide(size_t n, size_t columns, uint64_t seed) {
  Rng rng(seed);
  data::Dataset dataset;
  dataset.name = "wide";
  dataset.task = data::TaskType::kClassification;
  std::vector<std::vector<double>> values(columns, std::vector<double>(n));
  dataset.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < columns; ++c) values[c][i] = rng.Normal();
    dataset.labels[i] = values[0][i] + values[1][i] > 0.0 ? 1.0 : 0.0;
  }
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_TRUE(dataset.features
                    .AddColumn(data::Column("w" + std::to_string(c),
                                            std::move(values[c])))
                    .ok());
  }
  return dataset;
}

RandomForest::Options ForestOptions(bool share_binner, bool coded_predict,
                                    uint64_t seed = 17) {
  RandomForest::Options options;
  options.seed = seed;
  options.share_binner = share_binner;
  options.coded_predict = coded_predict;
  return options;
}

// On quantized data every bootstrap contains every distinct value, so the
// per-tree binner cuts equal the shared full-frame cuts and the two fit
// paths must produce bit-identical forests for the same seed.
TEST(SharedBinnerForestTest, SharedFitMatchesPerTreeFitOnQuantizedData) {
  const data::Dataset dataset = MakeQuantized(600, 4, 21);
  const data::Dataset query = MakeQuantized(200, 4, 22);
  RandomForest shared(ForestOptions(/*share_binner=*/true,
                                    /*coded_predict=*/false));
  RandomForest per_tree(ForestOptions(/*share_binner=*/false,
                                      /*coded_predict=*/false));
  ASSERT_TRUE(shared.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(per_tree.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(shared.Predict(dataset.features).ValueOrDie(),
            per_tree.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(shared.Predict(query.features).ValueOrDie(),
            per_tree.Predict(query.features).ValueOrDie());
  EXPECT_EQ(shared.PredictProba(query.features).ValueOrDie(),
            per_tree.PredictProba(query.features).ValueOrDie());
  EXPECT_EQ(shared.FeatureImportances(), per_tree.FeatureImportances());
}

// code(v) <= split_bin exactly when v <= cut(split_bin) for *any* value,
// so bin-coded prediction must match double-threshold prediction even
// when binning is lossy (2000 rows, 255 bins) and the query frame holds
// values never seen in training.
TEST(SharedBinnerForestTest, CodedPredictMatchesDoublePredict) {
  const data::Dataset dataset = MakeXor(2000, 31);
  const data::Dataset query = MakeXor(500, 32);
  RandomForest coded(ForestOptions(/*share_binner=*/true,
                                   /*coded_predict=*/true));
  RandomForest raw(ForestOptions(/*share_binner=*/true,
                                 /*coded_predict=*/false));
  ASSERT_TRUE(coded.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(raw.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(coded.Predict(dataset.features).ValueOrDie(),
            raw.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(coded.Predict(query.features).ValueOrDie(),
            raw.Predict(query.features).ValueOrDie());
  EXPECT_EQ(coded.PredictProba(query.features).ValueOrDie(),
            raw.PredictProba(query.features).ValueOrDie());
}

TEST(SharedBinnerForestTest, CodedPredictMatchesDoublePredictWhenLossless) {
  const data::Dataset dataset = MakeBlobs(150, 33);
  RandomForest coded(ForestOptions(true, true));
  RandomForest raw(ForestOptions(true, false));
  ASSERT_TRUE(coded.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(raw.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(coded.Predict(dataset.features).ValueOrDie(),
            raw.Predict(dataset.features).ValueOrDie());
}

// The zero-per-tree-work guarantee, by counter: a 10k-row forest fit bins
// the frame exactly once and never materializes a bootstrap sub-frame,
// and coded prediction never re-fits a binner.
TEST(SharedBinnerForestTest, ForestFitBinsOnceAndNeverSelectsRows) {
  const data::Dataset dataset = MakeXor(10000, 41);
  RandomForest forest;  // Defaults: histogram, shared, coded.
  FeatureBinner::ResetTotalFits();
  data::DataFrame::ResetTotalSelectRows();
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);
  EXPECT_EQ(data::DataFrame::TotalSelectRows(), 0u);
  const auto pred = forest.Predict(dataset.features).ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);  // Predict encodes, never fits.
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
}

// Cross-validation probes SharedBinnerModel: one bin of the frame serves
// every fold and every tree inside every fold, with no fold
// materialization anywhere.
TEST(SharedBinnerForestTest, CrossValidationBinsOnceAndNeverSelectsRows) {
  const data::Dataset dataset = MakeXor(1500, 43);
  CvOptions cv;
  cv.folds = 5;
  FeatureBinner::ResetTotalFits();
  data::DataFrame::ResetTotalSelectRows();
  const double score =
      CrossValidateScore([] { return std::make_unique<RandomForest>(); },
                         dataset, cv)
          .ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);
  EXPECT_EQ(data::DataFrame::TotalSelectRows(), 0u);
  EXPECT_GT(score, 0.85);
}

// The exact strategy declines sharing (BinFrame returns null) and CV must
// fall back to the materialized path and still work.
TEST(SharedBinnerForestTest, ExactStrategyFallsBackToMaterializedCv) {
  const data::Dataset dataset = MakeXor(300, 44);
  CvOptions cv;
  cv.folds = 3;
  FeatureBinner::ResetTotalFits();
  const double score =
      CrossValidateScore(
          [] {
            RandomForest::Options options;
            options.split_strategy = SplitStrategy::kExact;
            return std::make_unique<RandomForest>(options);
          },
          dataset, cv)
          .ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 0u);
  EXPECT_GT(score, 0.85);
}

TEST(SharedBinnerForestTest, FitBinnedRejectsBadInputs) {
  const data::Dataset dataset = MakeXor(100, 45);
  RandomForest forest;
  auto binner = forest.BinFrame(dataset.features).ValueOrDie();
  ASSERT_NE(binner, nullptr);
  // Row id out of range, empty rows, and label-count mismatch all fail.
  EXPECT_FALSE(forest.FitBinned(binner, dataset.labels, {100}).ok());
  EXPECT_FALSE(forest.FitBinned(binner, dataset.labels, {}).ok());
  std::vector<double> short_labels(50, 0.0);
  EXPECT_FALSE(forest.FitBinned(binner, short_labels, {0, 1}).ok());
  EXPECT_FALSE(forest.FitBinned(nullptr, dataset.labels, {0, 1}).ok());
  // PredictBinnedRows needs a shared fit first.
  EXPECT_FALSE(forest.PredictBinnedRows({0}).ok());
}

// Wide frames (p >= 200) cross the feature-parallel histogram threshold:
// the per-feature slices are disjoint and each feature walks rows in
// index order, so fits must be bit-identical at every thread count, for
// both a standalone tree and a shared-binner forest.
TEST(SharedBinnerForestTest, WideFrameFitsIdenticalAcrossThreadCounts) {
  const data::Dataset dataset = MakeWide(2000, 200, 51);
  DecisionTree::Options tree_options;
  tree_options.split_strategy = SplitStrategy::kHistogram;
  tree_options.seed = 7;

  runtime::SetGlobalThreads(1);
  DecisionTree serial_tree(tree_options);
  ASSERT_TRUE(serial_tree.Fit(dataset.features, dataset.labels).ok());
  const auto serial_tree_pred =
      serial_tree.Predict(dataset.features).ValueOrDie();
  RandomForest serial_forest(ForestOptions(true, true));
  ASSERT_TRUE(serial_forest.Fit(dataset.features, dataset.labels).ok());
  const auto serial_forest_pred =
      serial_forest.Predict(dataset.features).ValueOrDie();

  for (size_t threads : {2u, 3u, 4u, 8u}) {
    runtime::SetGlobalThreads(threads);
    DecisionTree tree(tree_options);
    ASSERT_TRUE(tree.Fit(dataset.features, dataset.labels).ok());
    EXPECT_EQ(tree.node_count(), serial_tree.node_count());
    EXPECT_EQ(tree.Predict(dataset.features).ValueOrDie(), serial_tree_pred);
    RandomForest forest(ForestOptions(true, true));
    ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
    EXPECT_EQ(forest.Predict(dataset.features).ValueOrDie(),
              serial_forest_pred);
  }
  runtime::SetGlobalThreads(1);
}

/// Cuts and codes of two fitted binners agree bit for bit.
void ExpectSameBins(const FeatureBinner& actual, const FeatureBinner& expected) {
  ASSERT_EQ(actual.num_features(), expected.num_features());
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  for (size_t f = 0; f < expected.num_features(); ++f) {
    ASSERT_EQ(actual.num_bins(f), expected.num_bins(f)) << "feature " << f;
    for (size_t b = 0; b + 1 < expected.num_bins(f); ++b) {
      EXPECT_EQ(std::bit_cast<uint64_t>(actual.cut(f, b)),
                std::bit_cast<uint64_t>(expected.cut(f, b)))
          << "feature " << f << " cut " << b;
    }
    EXPECT_EQ(actual.codes(f), expected.codes(f)) << "feature " << f;
  }
}

/// `dataset` with `column` appended as its last feature.
data::Dataset Widened(const data::Dataset& dataset, data::Column column) {
  data::Dataset widened = dataset;
  EXPECT_TRUE(widened.features.AddColumn(std::move(column)).ok());
  return widened;
}

/// Candidate columns covering every binning path: a 7-value grid
/// (lossless at 255 bins), continuous values (quantile cuts), a
/// two-valued column (lossless even at 2 bins) and a constant.
std::vector<data::Column> AppendCandidates(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> grid(n), continuous(n), binary(n);
  for (size_t i = 0; i < n; ++i) {
    grid[i] = static_cast<double>(rng.UniformInt(7)) * 0.5;
    continuous[i] = rng.Normal() * 3.0;
    binary[i] = rng.Bernoulli(0.3) ? 1.0 : -1.0;
  }
  return {data::Column("grid", grid), data::Column("continuous", continuous),
          data::Column("binary", binary),
          data::Column("constant", std::vector<double>(n, 2.5))};
}

// Binning is per column and deterministic, so widening a frame's binner
// by one column must reproduce Fit on the widened frame exactly — on the
// full-sort path (n <= max_cut_samples = 4096) and the strided-sample
// path (n > 4096), at both ends of the bin budget.
TEST(EpochFrameBinsTest, AppendColumnMatchesFitOnWidenedFrame) {
  for (size_t max_bins : {size_t{2}, size_t{255}}) {
    for (size_t n : {size_t{1500}, size_t{6000}}) {
      SCOPED_TRACE(::testing::Message() << "max_bins " << max_bins << " n "
                                        << n);
      const data::Dataset frame = MakeWide(n, 3, 71 + n);
      FeatureBinner::Options options;
      options.max_bins = max_bins;
      FeatureBinner frame_bins(options);
      ASSERT_TRUE(frame_bins.Fit(frame.features).ok());
      for (const data::Column& column : AppendCandidates(n, 72 + n)) {
        SCOPED_TRACE(column.name());
        FeatureBinner extended = frame_bins;
        ASSERT_TRUE(extended.AppendColumn(column).ok());
        FeatureBinner reference(options);
        ASSERT_TRUE(reference.Fit(Widened(frame, column).features).ok());
        ExpectSameBins(extended, reference);
      }
      // The shared frame binner itself is untouched.
      EXPECT_EQ(frame_bins.num_features(), 3u);
    }
  }
}

TEST(EpochFrameBinsTest, AppendColumnDoesNotCountAsFit) {
  const data::Dataset frame = MakeWide(800, 4, 73);
  FeatureBinner::ResetTotalFits();
  FeatureBinner frame_bins;
  ASSERT_TRUE(frame_bins.Fit(frame.features).ok());
  for (const data::Column& column : AppendCandidates(800, 74)) {
    FeatureBinner extended = frame_bins;
    ASSERT_TRUE(extended.AppendColumn(column).ok());
  }
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);
}

TEST(EpochFrameBinsTest, AppendColumnRejectsUnfittedAndMisalignedInput) {
  FeatureBinner unfitted;
  EXPECT_EQ(unfitted.AppendColumn(data::Column("c", {1.0, 2.0})).code(),
            StatusCode::kFailedPrecondition);
  const data::Dataset frame = MakeWide(50, 2, 75);
  FeatureBinner frame_bins;
  ASSERT_TRUE(frame_bins.Fit(frame.features).ok());
  EXPECT_EQ(frame_bins.AppendColumn(data::Column("c", {1.0, 2.0})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(frame_bins.num_features(), 2u);
}

// The CV score through frame bins widened by one column equals
// TaskEvaluator::Score on the widened dataset exactly, for every model
// that shares a binner, on both tasks; models that cannot share get no
// bins.
TEST(EpochFrameBinsTest, CvThroughAppendedBinsMatchesScoreOnWidenedDataset) {
  const data::Dataset classification = MakeWide(600, 3, 76);
  data::Dataset regression_frame = classification;
  regression_frame.task = data::TaskType::kRegression;
  for (size_t i = 0; i < regression_frame.labels.size(); ++i) {
    regression_frame.labels[i] = classification.features.column(0)[i] *
                                 classification.features.column(2)[i];
  }
  const data::Dataset& regression = regression_frame;
  for (const data::Dataset* frame : {&classification, &regression}) {
    // The product the frame's trees cannot express on their own.
    std::vector<double> product(frame->num_rows());
    for (size_t i = 0; i < product.size(); ++i) {
      product[i] = frame->features.column(0)[i] * frame->features.column(2)[i];
    }
    const data::Column candidate("w0*w2", product);
    const data::Dataset widened = Widened(*frame, candidate);
    for (ModelKind kind :
         {ModelKind::kRandomForest, ModelKind::kDecisionTree,
          ModelKind::kGradientBoostedTrees}) {
      SCOPED_TRACE(ModelKindToString(kind) + " " +
                   data::TaskTypeToString(frame->task));
      EvaluatorOptions options;
      options.model = kind;
      options.cv_folds = 4;
      options.rf_trees = 6;
      options.rf_max_depth = 5;
      options.gbdt_rounds = 12;
      options.max_bins = 32;
      options.seed = 9;
      const TaskEvaluator evaluator(options);
      auto frame_bins = evaluator.BinFrame(*frame).ValueOrDie();
      ASSERT_NE(frame_bins, nullptr);
      auto extended = std::make_shared<FeatureBinner>(*frame_bins);
      ASSERT_TRUE(extended->AppendColumn(candidate).ok());
      const double expected = evaluator.Score(widened).ValueOrDie();
      const double actual =
          evaluator.ScoreBinned(frame->task, frame->labels, extended)
              .ValueOrDie();
      EXPECT_EQ(std::bit_cast<uint64_t>(actual),
                std::bit_cast<uint64_t>(expected));
      EXPECT_EQ(evaluator.evaluation_count(), 2u);
    }
  }
  EvaluatorOptions exact;
  exact.split_strategy = SplitStrategy::kExact;
  EXPECT_EQ(TaskEvaluator(exact).BinFrame(classification).ValueOrDie(),
            nullptr);
  EvaluatorOptions linear;
  linear.model = ModelKind::kLogisticRegression;
  EXPECT_EQ(TaskEvaluator(linear).BinFrame(classification).ValueOrDie(),
            nullptr);
}

}  // namespace
}  // namespace eafe::ml
