#include <gtest/gtest.h>

#include <cmath>

#include "ml/decision_tree.h"
#include "ml/evaluator.h"
#include "ml/feature_binner.h"
#include "ml/histogram_builder.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "runtime/thread_pool.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::LabelAccuracy;
using testing::MakeBlobs;
using testing::MakeSeparable;
using testing::MakeSmoothRegression;
using testing::MakeXor;

TEST(SplitStrategyTest, StringRoundTrip) {
  EXPECT_EQ(SplitStrategyToString(SplitStrategy::kExact), "exact");
  EXPECT_EQ(SplitStrategyToString(SplitStrategy::kHistogram), "histogram");
  EXPECT_EQ(SplitStrategyFromString("exact").ValueOrDie(),
            SplitStrategy::kExact);
  EXPECT_EQ(SplitStrategyFromString("Histogram").ValueOrDie(),
            SplitStrategy::kHistogram);
  EXPECT_EQ(SplitStrategyFromString("hist").ValueOrDie(),
            SplitStrategy::kHistogram);
  EXPECT_FALSE(SplitStrategyFromString("sorted").ok());
}

TEST(FeatureBinnerTest, LosslessWhenDistinctValuesFit) {
  data::DataFrame x;
  ASSERT_TRUE(
      x.AddColumn(data::Column("f", {3.0, 1.0, 2.0, 2.0, 1.0, 3.0})).ok());
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x).ok());
  ASSERT_EQ(binner.num_bins(0), 3u);
  // Codes follow value order; equal values share a bin.
  EXPECT_EQ(binner.code(0, 1), binner.code(0, 4));  // Both 1.0.
  EXPECT_EQ(binner.code(0, 0), binner.code(0, 5));  // Both 3.0.
  EXPECT_LT(binner.code(0, 1), binner.code(0, 2));
  EXPECT_LT(binner.code(0, 2), binner.code(0, 0));
  // Cuts are midpoints between adjacent distinct values.
  EXPECT_DOUBLE_EQ(binner.cut(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(binner.cut(0, 1), 2.5);
}

TEST(FeatureBinnerTest, ConstantColumnGetsOneBin) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("c", {7.0, 7.0, 7.0})).ok());
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x).ok());
  EXPECT_EQ(binner.num_bins(0), 1u);
}

TEST(FeatureBinnerTest, CapsBinsOnWideColumns) {
  const size_t n = 5000;
  std::vector<double> values(n);
  Rng rng(3);
  for (double& v : values) v = rng.Normal();
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", values)).ok());
  FeatureBinner::Options options;
  options.max_bins = 32;
  FeatureBinner binner(options);
  ASSERT_TRUE(binner.Fit(x).ok());
  EXPECT_LE(binner.num_bins(0), 32u);
  EXPECT_GE(binner.num_bins(0), 30u);  // Continuous data fills the budget.
  // Encoding is order-preserving: larger value -> bin at least as large.
  for (size_t i = 1; i < n; ++i) {
    if (values[i] > values[i - 1]) {
      EXPECT_GE(binner.code(0, i), binner.code(0, i - 1));
    }
  }
  // Cuts partition the value range consistently with the codes.
  for (size_t i = 0; i < n; ++i) {
    const uint8_t bin = binner.code(0, i);
    if (bin > 0) {
      EXPECT_GT(values[i], binner.cut(0, bin - 1));
    }
    if (bin + 1u < binner.num_bins(0)) {
      EXPECT_LE(values[i], binner.cut(0, bin));
    }
  }
}

TEST(FeatureBinnerTest, RejectsBadInput) {
  FeatureBinner binner;
  data::DataFrame empty;
  EXPECT_FALSE(binner.Fit(empty).ok());
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1.0, 2.0})).ok());
  FeatureBinner::Options options;
  options.max_bins = 1;
  EXPECT_FALSE(FeatureBinner(options).Fit(x).ok());
  options.max_bins = 257;
  EXPECT_FALSE(FeatureBinner(options).Fit(x).ok());
}

TEST(HistogramBuilderTest, SubtractionMatchesDirectBuild) {
  const data::Dataset dataset = MakeBlobs(120, 5);
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(dataset.features).ok());
  const BinnedLabels labels =
      BinnedLabels::Create(data::TaskType::kClassification, dataset.labels)
          .ValueOrDie();
  HistogramBuilder builder(&binner, data::TaskType::kClassification, &labels,
                           &dataset.labels);
  std::vector<size_t> all(120), left, right;
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
    (i % 3 == 0 ? left : right).push_back(i);
  }
  Histogram parent, left_hist, expected_right;
  builder.Build(all, &parent);
  builder.Build(left, &left_hist);
  builder.Build(right, &expected_right);
  Histogram derived;
  builder.Subtract(parent, left_hist, &derived);
  EXPECT_EQ(derived.data, expected_right.data);
  EXPECT_EQ(derived.totals, expected_right.totals);
  // In place, as DecisionTree and the booster call it: out aliases parent.
  builder.Subtract(parent, left_hist, &parent);
  EXPECT_EQ(parent.data, expected_right.data);
  EXPECT_EQ(parent.totals, expected_right.totals);
}

// The split scans skip empty bins and stop once the right side drops
// below the leaf minimum. Both shortcuts must leave the chosen split
// equal to a brute-force scan that partitions the node's rows at every
// boundary. Labels, gradients and hessians are small integers, so every
// sum is exact and the two scans can be compared bit for bit.
TEST(HistogramBuilderTest, SplitScansMatchBruteForceWithEmptyBinsAndMinLeaf) {
  constexpr size_t kRows = 40;
  std::vector<double> values(kRows), classes(kRows), targets(kRows);
  std::vector<double> gradients(kRows), hessians(kRows);
  for (size_t v = 0; v < kRows; ++v) {
    values[v] = static_cast<double>(v);
    classes[v] = static_cast<double>(v * 7 % 3);
    targets[v] = static_cast<double>(v * 13 % 11) - 5.0;
    gradients[v] = static_cast<double>(v * 5 % 7) - 3.0;
    hessians[v] = 1.0 + static_cast<double>(v % 2);
  }
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", values)).ok());
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x).ok());
  ASSERT_EQ(binner.num_bins(0), kRows);  // Lossless: code == value.

  // The node leaves bins 0-2 and every bin == 2 (mod 5) empty, and
  // repeats a few rows the way bootstrap views do.
  std::vector<size_t> node;
  for (size_t r = 3; r < kRows; ++r) {
    if (r % 5 != 2) node.push_back(r);
    if (r % 9 == 0) node.push_back(r);
  }
  const double n = static_cast<double>(node.size());

  // Brute force: gain of the boundary after bin b (left = codes <= b),
  // from per-row sums; strict > keeps the earliest of equal gains.
  struct Sums {
    double n = 0.0, y = 0.0, y2 = 0.0, g = 0.0, h = 0.0;
    std::vector<double> counts = std::vector<double>(3, 0.0);
  };
  const auto brute_force = [&](double min_leaf, const auto& gain_of) {
    HistogramBuilder::Split best;
    for (size_t b = 0; b + 1 < kRows; ++b) {
      Sums left, right;
      for (const size_t r : node) {
        Sums& side = binner.code(0, r) <= b ? left : right;
        side.n += 1.0;
        side.counts[static_cast<size_t>(classes[r])] += 1.0;
        side.y += targets[r];
        side.y2 += targets[r] * targets[r];
        side.g += gradients[r];
        side.h += hessians[r];
      }
      if (left.n <= 0.0 || right.n <= 0.0) continue;
      if (left.n < min_leaf || right.n < min_leaf) continue;
      const double gain = gain_of(left, right);
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = 0;
        best.bin = static_cast<int>(b);
      }
    }
    return best;
  };
  const auto expect_same = [](const HistogramBuilder::Split& got,
                              const HistogramBuilder::Split& want,
                              double min_leaf) {
    EXPECT_EQ(got.feature, want.feature) << "min_leaf=" << min_leaf;
    EXPECT_EQ(got.bin, want.bin) << "min_leaf=" << min_leaf;
    EXPECT_EQ(got.gain, want.gain) << "min_leaf=" << min_leaf;
  };
  const auto gini = [](const std::vector<double>& counts, double total) {
    double sum_sq = 0.0;
    for (const double c : counts) sum_sq += (c / total) * (c / total);
    return 1.0 - sum_sq;
  };

  const BinnedLabels labels =
      BinnedLabels::Create(data::TaskType::kClassification, classes)
          .ValueOrDie();
  const HistogramBuilder classifier(&binner, data::TaskType::kClassification,
                                    &labels, &classes);
  Histogram class_hist;
  classifier.Build(node, &class_hist);
  const double class_parent = classifier.NodeImpurity(class_hist, node.size());

  const BinnedLabels no_labels =
      BinnedLabels::Create(data::TaskType::kRegression, targets)
          .ValueOrDie();
  const HistogramBuilder regressor(&binner, data::TaskType::kRegression,
                                   &no_labels, &targets);
  Histogram reg_hist;
  regressor.Build(node, &reg_hist);
  const double reg_parent = regressor.NodeImpurity(reg_hist, node.size());

  const HistogramBuilder booster(&binner, &gradients, &hessians);
  Histogram grad_hist;
  booster.Build(node, &grad_hist);
  const double lambda = 1.0;
  double total_g = 0.0, total_h = 0.0;
  for (const size_t r : node) {
    total_g += gradients[r];
    total_h += hessians[r];
  }
  const double parent_term = total_g * total_g / (total_h + lambda);

  bool found_split = false;
  for (const double min_leaf : {1.0, 4.0, 9.0, 20.0}) {
    const size_t leaf = static_cast<size_t>(min_leaf);
    const HistogramBuilder::Split class_want =
        brute_force(min_leaf, [&](const Sums& l, const Sums& r) {
          const double wl = l.n / n;
          return class_parent -
                 (wl * gini(l.counts, l.n) + (1.0 - wl) * gini(r.counts, r.n));
        });
    expect_same(classifier.FindBestSplit(class_hist, {0}, node.size(), leaf,
                                         class_parent),
                class_want, min_leaf);
    found_split = found_split || class_want.bin >= 0;

    expect_same(
        regressor.FindBestSplit(reg_hist, {0}, node.size(), leaf,
                                reg_parent),
        brute_force(min_leaf,
                    [&](const Sums& l, const Sums& r) {
                      const double wl = l.n / n;
                      const double lm = l.y / l.n;
                      const double rm = r.y / r.n;
                      return reg_parent - (wl * (l.y2 / l.n - lm * lm) +
                                           (1.0 - wl) * (r.y2 / r.n - rm * rm));
                    }),
        min_leaf);

    expect_same(
        booster.FindBestSplitGradient(grad_hist, leaf, lambda),
        brute_force(min_leaf,
                    [&](const Sums& l, const Sums& r) {
                      return 0.5 * (l.g * l.g / (l.h + lambda) +
                                    r.g * r.g / (r.h + lambda) - parent_term);
                    }),
        min_leaf);
  }
  EXPECT_TRUE(found_split);
}

// With every sample value distinct and n <= max_bins, the binning is
// lossless and histogram split finding scans exactly the thresholds the
// exact backend scans — the trees must agree on the training partition.
TEST(HistogramEquivalenceTest, AgreesWithExactWhenBinningIsLossless) {
  const data::Dataset dataset = MakeXor(200, 21);  // Continuous, n <= 255.
  DecisionTree::Options options;
  options.split_strategy = SplitStrategy::kExact;
  DecisionTree exact(options);
  options.split_strategy = SplitStrategy::kHistogram;
  DecisionTree histogram(options);
  ASSERT_TRUE(exact.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(histogram.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(exact.node_count(), histogram.node_count());
  EXPECT_EQ(exact.Predict(dataset.features).ValueOrDie(),
            histogram.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(exact.PredictProba(dataset.features).ValueOrDie(),
            histogram.PredictProba(dataset.features).ValueOrDie());
}

TEST(HistogramEquivalenceTest, AgreesWithExactOnRegressionWhenLossless) {
  const data::Dataset dataset = MakeSmoothRegression(180, 22);
  DecisionTree::Options options;
  options.task = data::TaskType::kRegression;
  options.split_strategy = SplitStrategy::kExact;
  DecisionTree exact(options);
  options.split_strategy = SplitStrategy::kHistogram;
  DecisionTree histogram(options);
  ASSERT_TRUE(exact.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(histogram.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(exact.node_count(), histogram.node_count());
  EXPECT_EQ(exact.Predict(dataset.features).ValueOrDie(),
            histogram.Predict(dataset.features).ValueOrDie());
}

TEST(HistogramEquivalenceTest, ClassificationAccuracyWithinTolerance) {
  const data::Dataset dataset = MakeXor(3000, 23);
  RandomForest::Options options;
  options.split_strategy = SplitStrategy::kExact;
  RandomForest exact(options);
  options.split_strategy = SplitStrategy::kHistogram;
  RandomForest histogram(options);
  ASSERT_TRUE(exact.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(histogram.Fit(dataset.features, dataset.labels).ok());
  const double exact_acc = LabelAccuracy(
      dataset.labels, exact.Predict(dataset.features).ValueOrDie());
  const double histogram_acc = LabelAccuracy(
      dataset.labels, histogram.Predict(dataset.features).ValueOrDie());
  EXPECT_GT(histogram_acc, 0.9);
  EXPECT_NEAR(histogram_acc, exact_acc, 0.02);
}

TEST(HistogramEquivalenceTest, RegressionScoreWithinTolerance) {
  const data::Dataset dataset = MakeSmoothRegression(3000, 24);
  RandomForest::Options options;
  options.task = data::TaskType::kRegression;
  options.split_strategy = SplitStrategy::kExact;
  RandomForest exact(options);
  options.split_strategy = SplitStrategy::kHistogram;
  RandomForest histogram(options);
  ASSERT_TRUE(exact.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(histogram.Fit(dataset.features, dataset.labels).ok());
  const double exact_score = OneMinusRae(
      dataset.labels, exact.Predict(dataset.features).ValueOrDie());
  const double histogram_score = OneMinusRae(
      dataset.labels, histogram.Predict(dataset.features).ValueOrDie());
  EXPECT_GT(histogram_score, 0.7);
  EXPECT_NEAR(histogram_score, exact_score, 0.02);
}

TEST(HistogramEquivalenceTest, MultiClassForestLearnsBlobs) {
  const data::Dataset dataset = MakeBlobs(600, 25);
  RandomForest::Options options;
  options.split_strategy = SplitStrategy::kHistogram;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  EXPECT_GT(LabelAccuracy(dataset.labels,
                          forest.Predict(dataset.features).ValueOrDie()),
            0.95);
}

TEST(HistogramEquivalenceTest, EvaluatorScoresWithinOnePercent) {
  // The acceptance bar: downstream CV scores of the two backends agree
  // within 1% on the equivalence datasets. Agreement here is statistical,
  // not bitwise: at deep nodes the exact backend centers thresholds
  // between node-local adjacent values while the histogram uses global
  // bin cuts, so held-out rows between the two can route differently.
  // Averaging over enough trees keeps the effect well inside 1%.
  for (const data::Dataset& dataset :
       {MakeSeparable(1000, 26), MakeSmoothRegression(1000, 27)}) {
    EvaluatorOptions options;
    options.cv_folds = 3;
    options.rf_trees = 30;
    options.split_strategy = SplitStrategy::kExact;
    const double exact_score =
        TaskEvaluator(options).Score(dataset).ValueOrDie();
    options.split_strategy = SplitStrategy::kHistogram;
    const double histogram_score =
        TaskEvaluator(options).Score(dataset).ValueOrDie();
    EXPECT_NEAR(histogram_score, exact_score, 0.01) << dataset.name;
  }
}

TEST(HistogramDeterminismTest, RepeatedFitsAreBitIdentical) {
  const data::Dataset dataset = MakeXor(500, 28);
  RandomForest::Options options;
  options.split_strategy = SplitStrategy::kHistogram;
  RandomForest a(options), b(options);
  ASSERT_TRUE(a.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(b.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(a.Predict(dataset.features).ValueOrDie(),
            b.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(a.PredictProba(dataset.features).ValueOrDie(),
            b.PredictProba(dataset.features).ValueOrDie());
  EXPECT_EQ(a.FeatureImportances(), b.FeatureImportances());
}

TEST(HistogramDeterminismTest, FitIsIdenticalAcrossThreadCounts) {
  // PR 1's determinism contract extended to the histogram strategy:
  // binning and per-node histogram work are serial per tree, so parallel
  // tree training stays bit-identical to the serial path.
  const data::Dataset dataset = MakeBlobs(400, 29);
  RandomForest::Options options;
  options.split_strategy = SplitStrategy::kHistogram;
  runtime::SetGlobalThreads(1);
  RandomForest serial(options);
  ASSERT_TRUE(serial.Fit(dataset.features, dataset.labels).ok());
  runtime::SetGlobalThreads(4);
  RandomForest parallel(options);
  ASSERT_TRUE(parallel.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(serial.Predict(dataset.features).ValueOrDie(),
            parallel.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(serial.PredictProba(dataset.features).ValueOrDie(),
            parallel.PredictProba(dataset.features).ValueOrDie());
  EXPECT_EQ(serial.FeatureImportances(), parallel.FeatureImportances());
  runtime::SetGlobalThreads(1);
}

TEST(HistogramTreeTest, RejectsNegativeClassLabels) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1.0, 2.0, 3.0, 4.0})).ok());
  DecisionTree tree;
  EXPECT_FALSE(tree.Fit(x, {0.0, -1.0, 0.0, 1.0}).ok());
}

}  // namespace
}  // namespace eafe::ml
