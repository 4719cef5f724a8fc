#include "ml/histogram_builder.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "runtime/thread_pool.h"

namespace eafe::ml {
namespace {

/// Gini impurity from per-class double counts (exact integers).
double GiniFromCounts(const double* counts, int num_classes, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (int c = 0; c < num_classes; ++c) {
    const double p = counts[c] / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

// Per-bin accumulation over a node's rows. `codes` is the binner's full
// per-row code column; `indices` selects the node's rows (ids into
// codes, may repeat). Entries are added INTO `out` in row order, so the
// sums are the same fixed-order result on every run and thread count.

void AccumulateClassCounts(const uint8_t* codes,
                           const std::vector<size_t>& indices,
                           const int* classes, size_t width, double* out) {
  for (const size_t row : indices) {
    out[codes[row] * width + static_cast<size_t>(classes[row])] += 1.0;
  }
}

/// {count, Σa, Σb} per bin: regression uses (y, y²), gradient pairs use
/// (g, h).
template <typename Stats>
void AccumulateTriples(const uint8_t* codes,
                       const std::vector<size_t>& indices, const Stats& stats,
                       double* out) {
  for (const size_t row : indices) {
    double* entry = out + codes[row] * 3;
    const auto [a, b] = stats(row);
    entry[0] += 1.0;
    entry[1] += a;
    entry[2] += b;
  }
}

/// Best boundary over one feature's bins; bin == -1 when no boundary
/// achieves a positive gain (the split search's `gain > 0` floor).
struct SplitScan {
  int bin = -1;
  double gain = 0.0;
};

/// Second-order (XGBoost) gain scan over one feature's {count, Σg, Σh}
/// bins. `parent_term` is G²/(H+lambda). Empty bins duplicate the
/// previous boundary and are skipped; the scan stops once the right side
/// drops below the leaf minimum (left_n only grows, so the condition is
/// monotone). Ties keep the lowest boundary.
SplitScan GradientSplitScan(const double* h, size_t bins, double total_n,
                            double total_g, double total_h, double min_leaf,
                            double lambda, double parent_term) {
  SplitScan best;
  double left_n = 0.0, left_g = 0.0, left_h = 0.0;
  for (size_t b = 0; b + 1 < bins; ++b) {
    const double* entry = h + b * 3;
    if (entry[0] <= 0.0) continue;  // Empty bin: duplicate boundary.
    left_n += entry[0];
    left_g += entry[1];
    left_h += entry[2];
    const double right_n = total_n - left_n;
    if (right_n <= 0.0 || right_n < min_leaf) break;
    if (left_n < min_leaf) continue;

    const double right_g = total_g - left_g;
    const double right_h = total_h - left_h;
    const double gain =
        0.5 * (left_g * left_g / (left_h + lambda) +
               right_g * right_g / (right_h + lambda) - parent_term);
    if (gain > best.gain) {
      best.gain = gain;
      best.bin = static_cast<int>(b);
    }
  }
  return best;
}

/// Variance-reduction gain scan over one feature's {count, Σy, Σy²}
/// bins, with the same empty-bin skip and min-leaf pruning. `n` is the
/// node's row count as a double.
SplitScan RegressionSplitScan(const double* h, size_t bins, double n,
                              double total_sum, double total_sum2,
                              double min_leaf, double parent_impurity) {
  SplitScan best;
  double left_n = 0.0, left_sum = 0.0, left_sum2 = 0.0;
  for (size_t b = 0; b + 1 < bins; ++b) {
    const double* entry = h + b * 3;
    if (entry[0] <= 0.0) continue;  // Empty bin: duplicate boundary.
    left_n += entry[0];
    left_sum += entry[1];
    left_sum2 += entry[2];
    const double right_n = n - left_n;
    if (right_n <= 0.0 || right_n < min_leaf) break;
    if (left_n < min_leaf) continue;

    const double wl = left_n / n;
    const double right_sum = total_sum - left_sum;
    const double right_sum2 = total_sum2 - left_sum2;
    const double lm = left_sum / left_n;
    const double rm = right_sum / right_n;
    const double left_var = left_sum2 / left_n - lm * lm;
    const double right_var = right_sum2 / right_n - rm * rm;
    const double impurity = wl * left_var + (1.0 - wl) * right_var;
    const double gain = parent_impurity - impurity;
    if (gain > best.gain) {
      best.gain = gain;
      best.bin = static_cast<int>(b);
    }
  }
  return best;
}

}  // namespace

Result<BinnedLabels> BinnedLabels::Create(data::TaskType task,
                                          const std::vector<double>& y) {
  BinnedLabels labels;
  if (task != data::TaskType::kClassification) return labels;
  labels.classes.resize(y.size());
  int max_class = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0.0) {
      return Status::InvalidArgument(
          "classification labels must be nonnegative class ids");
    }
    labels.classes[i] = static_cast<int>(y[i]);
    max_class = std::max(max_class, labels.classes[i]);
  }
  labels.num_classes = max_class + 1;
  return labels;
}

HistogramBuilder::HistogramBuilder(const FeatureBinner* binner,
                                   data::TaskType task,
                                   const BinnedLabels* labels,
                                   const std::vector<double>* y)
    : binner_(binner),
      mode_(task == data::TaskType::kClassification ? Mode::kClassification
                                                    : Mode::kRegression),
      labels_(labels),
      y_(y) {
  EAFE_CHECK(binner_ != nullptr && binner_->fitted());
  EAFE_CHECK(labels_ != nullptr && y_ != nullptr);
  const bool classification = mode_ == Mode::kClassification;
  entry_width_ =
      classification ? static_cast<size_t>(labels_->num_classes) : 3;
  EAFE_CHECK_GE(entry_width_, 1u);
  if (classification) {
    EAFE_CHECK_EQ(labels_->classes.size(), y_->size());
  }
  InitOffsets();
}

HistogramBuilder::HistogramBuilder(const FeatureBinner* binner,
                                   const std::vector<double>* gradients,
                                   const std::vector<double>* hessians)
    : binner_(binner),
      mode_(Mode::kGradientPair),
      gradients_(gradients),
      hessians_(hessians) {
  EAFE_CHECK(binner_ != nullptr && binner_->fitted());
  EAFE_CHECK(gradients_ != nullptr && hessians_ != nullptr);
  EAFE_CHECK_EQ(gradients_->size(), hessians_->size());
  entry_width_ = 3;  // {count, sum_g, sum_h}.
  InitOffsets();
}

void HistogramBuilder::InitOffsets() {
  offsets_.resize(binner_->num_features());
  size_t offset = 0;
  for (size_t f = 0; f < binner_->num_features(); ++f) {
    offsets_[f] = offset;
    offset += binner_->num_bins(f) * entry_width_;
  }
  total_size_ = offset;
}

void HistogramBuilder::BuildFeatures(const std::vector<size_t>& indices,
                                     size_t begin, size_t end,
                                     Histogram* out) const {
  for (size_t f = begin; f < end; ++f) {
    if (binner_->num_bins(f) < 2) continue;  // Constant column: no splits.
    const uint8_t* codes = binner_->codes(f).data();
    double* h = out->data.data() + offsets_[f];
    if (mode_ == Mode::kClassification) {
      AccumulateClassCounts(codes, indices, labels_->classes.data(),
                            entry_width_, h);
    } else if (mode_ == Mode::kRegression) {
      const std::vector<double>& y = *y_;
      AccumulateTriples(codes, indices, [&y](size_t row) {
        return std::pair{y[row], y[row] * y[row]};
      }, h);
    } else {
      const std::vector<double>& g = *gradients_;
      const std::vector<double>& hess = *hessians_;
      AccumulateTriples(codes, indices, [&g, &hess](size_t row) {
        return std::pair{g[row], hess[row]};
      }, h);
    }
  }
}

void HistogramBuilder::Build(const std::vector<size_t>& indices,
                             Histogram* out) const {
  out->data.assign(total_size_, 0.0);
  out->totals.assign(entry_width_, 0.0);
  if (mode_ == Mode::kClassification) {
    const std::vector<int>& classes = labels_->classes;
    for (size_t i : indices) out->totals[classes[i]] += 1.0;
  } else if (mode_ == Mode::kRegression) {
    for (size_t i : indices) {
      const double value = (*y_)[i];
      out->totals[0] += 1.0;
      out->totals[1] += value;
      out->totals[2] += value * value;
    }
  } else {
    for (size_t i : indices) {
      out->totals[0] += 1.0;
      out->totals[1] += (*gradients_)[i];
      out->totals[2] += (*hessians_)[i];
    }
  }
  const size_t num_features = binner_->num_features();
  // Wide engineered frames accumulate feature-parallel: each block owns a
  // disjoint slice of the flat array and walks `indices` in order, so the
  // result is independent of the partition. Nested calls (a tree training
  // on a pool worker) run inline via ParallelFor's own guard.
  if (num_features >= kMinParallelFeatures &&
      indices.size() >= kMinParallelRows) {
    runtime::ParallelFor(
        runtime::GlobalPool(), num_features, /*min_block=*/16,
        [&](size_t begin, size_t end) {
          BuildFeatures(indices, begin, end, out);
        });
  } else {
    BuildFeatures(indices, 0, num_features, out);
  }
}

void HistogramBuilder::Subtract(const Histogram& parent,
                                const Histogram& sibling,
                                Histogram* out) const {
  EAFE_CHECK_EQ(parent.data.size(), sibling.data.size());
  if (out != &parent) {
    out->data.resize(parent.data.size());
    out->totals.resize(parent.totals.size());
  }
  for (size_t i = 0; i < parent.data.size(); ++i) {
    out->data[i] = parent.data[i] - sibling.data[i];
  }
  for (size_t i = 0; i < parent.totals.size(); ++i) {
    out->totals[i] = parent.totals[i] - sibling.totals[i];
  }
}

double HistogramBuilder::NodeImpurity(const Histogram& hist,
                                      size_t node_size) const {
  EAFE_CHECK(mode_ != Mode::kGradientPair);
  const double n = static_cast<double>(node_size);
  if (mode_ == Mode::kClassification) {
    return GiniFromCounts(hist.totals.data(), labels_->num_classes, n);
  }
  const double mean = hist.totals[1] / n;
  return hist.totals[2] / n - mean * mean;
}

HistogramBuilder::Split HistogramBuilder::FindBestSplit(
    const Histogram& hist, const std::vector<size_t>& features,
    size_t node_size, size_t min_samples_leaf,
    double parent_impurity) const {
  EAFE_CHECK(mode_ != Mode::kGradientPair);
  Split best;
  const double n = static_cast<double>(node_size);
  const bool classification = mode_ == Mode::kClassification;
  const double min_leaf = static_cast<double>(min_samples_leaf);

  std::vector<double> left(entry_width_);
  for (size_t f : features) {
    const size_t bins = binner_->num_bins(f);
    if (bins < 2) continue;
    const double* h = hist.data.data() + offsets_[f];
    if (!classification) {
      // Per-feature variance scan; the strict > keeps the earliest
      // feature on gain ties, matching a single running compare.
      const SplitScan scan = RegressionSplitScan(
          h, bins, n, hist.totals[1], hist.totals[2], min_leaf,
          parent_impurity);
      if (scan.bin >= 0 && scan.gain > best.gain) {
        best.gain = scan.gain;
        best.feature = static_cast<int>(f);
        best.bin = scan.bin;
      }
      continue;
    }
    std::fill(left.begin(), left.end(), 0.0);
    double left_n = 0.0;
    // Boundary after bin b: left = bins [0, b], right = the rest. An
    // empty bin's boundary duplicates the previous candidate's partition
    // (identical stats, and strict > keeps the first of equal gains), so
    // it is skipped without evaluating; and since left_n only grows, the
    // scan stops once the right side is below the leaf minimum. Both cuts
    // leave the chosen split bit-identical while making the per-node cost
    // proportional to occupied bins, not the bin budget.
    for (size_t b = 0; b + 1 < bins; ++b) {
      const double* entry = h + b * entry_width_;
      double bin_n = 0.0;
      for (size_t c = 0; c < entry_width_; ++c) bin_n += entry[c];
      if (bin_n <= 0.0) continue;  // Empty bin: duplicate boundary.
      for (size_t c = 0; c < entry_width_; ++c) left[c] += entry[c];
      left_n += bin_n;
      const double right_n = n - left_n;
      if (right_n <= 0.0 || right_n < min_leaf) break;
      if (left_n < min_leaf) continue;

      const double wl = left_n / n;
      double gini_right = 0.0;
      {
        double sum_sq = 0.0;
        for (size_t c = 0; c < entry_width_; ++c) {
          const double p = (hist.totals[c] - left[c]) / right_n;
          sum_sq += p * p;
        }
        gini_right = 1.0 - sum_sq;
      }
      const double gini_left =
          GiniFromCounts(left.data(), labels_->num_classes, left_n);
      const double impurity = wl * gini_left + (1.0 - wl) * gini_right;
      const double gain = parent_impurity - impurity;
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = static_cast<int>(f);
        best.bin = static_cast<int>(b);
      }
    }
  }
  return best;
}

HistogramBuilder::Split HistogramBuilder::FindBestSplitGradient(
    const Histogram& hist, size_t min_samples_leaf, double lambda) const {
  EAFE_CHECK(mode_ == Mode::kGradientPair);
  Split best;
  const double total_n = hist.totals[0];
  const double total_g = hist.totals[1];
  const double total_h = hist.totals[2];
  const double parent_term = total_g * total_g / (total_h + lambda);
  const double min_leaf = static_cast<double>(min_samples_leaf);

  const size_t num_features = binner_->num_features();
  for (size_t f = 0; f < num_features; ++f) {
    const size_t bins = binner_->num_bins(f);
    if (bins < 2) continue;
    const double* h = hist.data.data() + offsets_[f];
    // Same scan shape as FindBestSplit's (empty-bin skip, min-leaf
    // pruning); strict > keeps the earliest feature on ties.
    const SplitScan scan = GradientSplitScan(
        h, bins, total_n, total_g, total_h, min_leaf, lambda, parent_term);
    if (scan.bin >= 0 && scan.gain > best.gain) {
      best.gain = scan.gain;
      best.feature = static_cast<int>(f);
      best.bin = scan.bin;
    }
  }
  return best;
}

}  // namespace eafe::ml
