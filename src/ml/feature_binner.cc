#include "ml/feature_binner.h"

#include <algorithm>
#include <atomic>

#include "core/string_util.h"

namespace eafe::ml {
namespace {

std::atomic<size_t> g_total_fits{0};

}  // namespace

size_t FeatureBinner::TotalFits() {
  return g_total_fits.load(std::memory_order_relaxed);
}

void FeatureBinner::ResetTotalFits() {
  g_total_fits.store(0, std::memory_order_relaxed);
}

namespace {

/// Cut points for one column from its (possibly subsampled) sorted values:
/// midpoints between adjacent distinct values when those fit the bin
/// budget, otherwise midpoints at evenly spaced quantile boundaries.
/// Strictly ascending by construction.
std::vector<double> ComputeCuts(const std::vector<double>& sorted,
                                size_t max_bins) {
  std::vector<double> cuts;
  if (sorted.size() < 2) return cuts;

  size_t distinct = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    distinct += sorted[i] != sorted[i - 1];
  }
  if (distinct <= max_bins) {
    cuts.reserve(distinct - 1);
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] == sorted[i - 1]) continue;
      // Same formula as the exact backend's thresholds, so lossless
      // binning reproduces its cut values bitwise (not just its training
      // partition — validation rows between the two rounded midpoints
      // would otherwise route differently).
      const double cut = 0.5 * (sorted[i - 1] + sorted[i]);
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    }
    return cuts;
  }

  // Quantile boundaries: a candidate cut between the samples flanking each
  // of max_bins evenly spaced positions. Boundaries inside a run of equal
  // values separate nothing and are dropped, so heavy-duplicate columns
  // produce fewer (still strictly ascending) cuts.
  cuts.reserve(max_bins - 1);
  for (size_t b = 1; b < max_bins; ++b) {
    const size_t pos = b * sorted.size() / max_bins;
    if (pos == 0 || pos >= sorted.size()) continue;
    const double lo = sorted[pos - 1];
    const double hi = sorted[pos];
    if (hi <= lo) continue;
    const double cut = 0.5 * (lo + hi);
    if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
  }
  return cuts;
}

}  // namespace

FeatureBinner::FeatureBinner(const Options& options) : options_(options) {}

std::shared_ptr<const FeatureBinner::BinnedColumn> FeatureBinner::BinColumn(
    const std::vector<double>& values, std::vector<double>* sorted) const {
  const size_t n = values.size();
  if (n > options_.max_cut_samples) {
    // Wide column: estimate cuts from a deterministic even stride over
    // the rows (no RNG), sorting only the sample. Sorting the full
    // column would dominate the whole histogram fit at large n.
    sorted->resize(options_.max_cut_samples);
    for (size_t i = 0; i < sorted->size(); ++i) {
      (*sorted)[i] = values[i * n / sorted->size()];
    }
  } else {
    *sorted = values;
  }
  std::sort(sorted->begin(), sorted->end());

  auto column = std::make_shared<BinnedColumn>();
  column->cuts = ComputeCuts(*sorted, options_.max_bins);
  const std::vector<double>& cuts = column->cuts;
  std::vector<uint8_t>& codes = column->codes;
  codes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // First cut >= v is the boundary v sits left of; past-the-end means
    // the last bin.
    const size_t bin = static_cast<size_t>(
        std::lower_bound(cuts.begin(), cuts.end(), values[i]) - cuts.begin());
    codes[i] = static_cast<uint8_t>(bin);
  }
  return column;
}

Status FeatureBinner::Fit(const data::DataFrame& x) {
  if (x.num_columns() == 0 || x.num_rows() == 0) {
    return Status::InvalidArgument("binner needs a nonempty frame");
  }
  if (options_.max_bins < 2 || options_.max_bins > 256) {
    return Status::InvalidArgument(
        StrFormat("max_bins must be in [2, 256], got %zu",
                  options_.max_bins));
  }
  if (options_.max_cut_samples < options_.max_bins) {
    return Status::InvalidArgument(
        StrFormat("max_cut_samples (%zu) must be >= max_bins (%zu)",
                  options_.max_cut_samples, options_.max_bins));
  }
  g_total_fits.fetch_add(1, std::memory_order_relaxed);
  columns_.clear();
  columns_.reserve(x.num_columns());
  std::vector<double> sorted;
  for (const data::Column& column : x.columns()) {
    columns_.push_back(BinColumn(column.values(), &sorted));
  }
  return Status::OK();
}

Status FeatureBinner::AppendColumn(const data::Column& column) {
  if (!fitted()) {
    return Status::FailedPrecondition("binner is not fitted");
  }
  if (column.size() != num_rows()) {
    return Status::InvalidArgument(
        StrFormat("column '%s' has %zu rows, binner holds %zu",
                  column.name().c_str(), column.size(), num_rows()));
  }
  std::vector<double> sorted;
  columns_.push_back(BinColumn(column.values(), &sorted));
  return Status::OK();
}

Result<EncodedFrame> FeatureBinner::Encode(const data::DataFrame& x) const {
  if (!fitted()) {
    return Status::FailedPrecondition("binner is not fitted");
  }
  if (x.num_columns() != num_features()) {
    return Status::InvalidArgument(
        StrFormat("binner fitted on %zu features, got %zu", num_features(),
                  x.num_columns()));
  }
  const size_t n = x.num_rows();
  EncodedFrame encoded(num_features());
  for (size_t f = 0; f < num_features(); ++f) {
    const std::vector<double>& values = x.column(f).values();
    const std::vector<double>& cuts = columns_[f]->cuts;
    std::vector<uint8_t>& codes = encoded[f];
    codes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t bin =
          static_cast<size_t>(std::lower_bound(cuts.begin(), cuts.end(),
                                               values[i]) -
                              cuts.begin());
      codes[i] = static_cast<uint8_t>(bin);
    }
  }
  return encoded;
}

}  // namespace eafe::ml
