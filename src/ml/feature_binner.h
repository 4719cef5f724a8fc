#ifndef EAFE_ML_FEATURE_BINNER_H_
#define EAFE_ML_FEATURE_BINNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/status.h"
#include "data/dataframe.h"

namespace eafe::ml {

/// Column-major bin codes of a query frame produced by
/// FeatureBinner::Encode — one uint8 vector per feature. Encoding a frame
/// once lets every tree of a forest route predictions on uint8 code
/// comparisons instead of re-reading raw doubles.
using EncodedFrame = std::vector<std::vector<uint8_t>>;

/// Quantizes every column of a DataFrame into at most `max_bins` ordinal
/// bins (uint8 codes) once per *frame*, so split finding can scan bin
/// boundaries (O(bins) per feature) instead of re-sorting raw values
/// (O(n log n)) at every node. A fitted binner is immutable and safe to
/// share across threads: a forest bins the frame once and every tree
/// trains through row-id views of the same codes (bootstrap is pure row
/// selection), instead of re-binning a materialized bootstrap copy.
/// Columns are binned independently and held in shared immutable
/// per-column storage, so copying a binner copies pointers, not codes:
/// AppendColumn widens a copy of a fitted frame's binner by one column
/// without re-binning (or duplicating) the columns it already holds.
///
/// Cut points are midpoints between adjacent distinct values: when a
/// column has <= max_bins distinct values the binning is lossless, and
/// histogram split finding considers exactly the thresholds the exact
/// backend would (the basis of the exact-vs-histogram agreement tests).
/// Wider columns fall back to evenly spaced quantiles of a deterministic
/// strided sample of the sorted values. No RNG is involved anywhere, so
/// binning is bit-identical across runs and thread counts.
class FeatureBinner {
 public:
  struct Options {
    /// Upper bound on bins per feature; codes must fit uint8, so <= 256.
    size_t max_bins = 255;
    /// Cut points are estimated from at most this many values per column
    /// (an evenly row-strided subsample, sorted; columns at or under the
    /// cap are sorted whole, which preserves the lossless-agreement
    /// property below). Must be >= max_bins.
    size_t max_cut_samples = 4096;
  };

  FeatureBinner() : FeatureBinner(Options()) {}
  explicit FeatureBinner(const Options& options);

  /// Computes per-column cut points and encodes every value.
  Status Fit(const data::DataFrame& x);

  /// Bins one more column after the fitted ones with this binner's
  /// options. The result is bit-identical to Fit on the frame widened by
  /// `column` (cuts and codes are per-column functions of the values),
  /// but only the new column is binned and TotalFits does not move.
  /// Copy a shared binner first: the copy shares the existing columns'
  /// storage and the original stays untouched.
  Status AppendColumn(const data::Column& column);

  /// Encodes a query frame with the fitted cuts (transform only, no
  /// refit). Uses the same lower_bound comparison as Fit, so for any
  /// value v and split bin b, code(v) <= b exactly when v <= cut(b):
  /// bin-coded tree traversal is bit-identical to the raw-double path.
  Result<EncodedFrame> Encode(const data::DataFrame& x) const;

  /// Process-wide count of Fit calls — test instrumentation for the
  /// zero-per-tree-re-binning guarantee (a forest fit must bump this
  /// exactly once). Relaxed atomic; reset only between test sections.
  static size_t TotalFits();
  static void ResetTotalFits();

  size_t num_features() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0]->codes.size();
  }
  bool fitted() const { return !columns_.empty(); }

  /// Number of bins for feature `f` (1 means the column is constant).
  size_t num_bins(size_t f) const { return columns_[f]->cuts.size() + 1; }

  /// Bin code of `row` in feature `f`.
  uint8_t code(size_t f, size_t row) const { return columns_[f]->codes[row]; }

  /// All codes of feature `f` (one uint8 per row).
  const std::vector<uint8_t>& codes(size_t f) const {
    return columns_[f]->codes;
  }

  /// Threshold between bins `b` and `b+1` of feature `f`: raw values v
  /// with v <= cut(f, b) encode to a bin <= b. Requires b < num_bins - 1.
  double cut(size_t f, size_t b) const { return columns_[f]->cuts[b]; }

 private:
  /// One binned column; immutable once built and shared by every binner
  /// copied from the one that built it.
  struct BinnedColumn {
    std::vector<double> cuts;    ///< Ascending, num_bins-1 entries.
    std::vector<uint8_t> codes;  ///< One bin code per row.
  };

  std::shared_ptr<const BinnedColumn> BinColumn(
      const std::vector<double>& values, std::vector<double>* sorted) const;

  Options options_;
  std::vector<std::shared_ptr<const BinnedColumn>> columns_;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_FEATURE_BINNER_H_
