#ifndef EAFE_SERVE_FLAT_PREDICTOR_H_
#define EAFE_SERVE_FLAT_PREDICTOR_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "data/dataframe.h"
#include "serve/flat_model.h"

namespace eafe::serve {

/// Batch inference over a FlatTreeModel: the serving-side counterpart of
/// RandomForest::Predict / GradientBoostedTrees::Predict, reconstructed
/// purely from the loaded arrays (model_store.h) with no pointer
/// chasing.
///
/// Predictions are bit-identical to the in-memory coded paths: rows are
/// encoded with the same lower_bound-over-cuts rule as
/// FeatureBinner::Encode, traversal routes on the same code <= split_bin
/// comparison, and per-row aggregation accumulates leaf payloads in tree
/// order exactly like RandomForest::Aggregate / RawScoresCoded.
///
/// Layout is chosen for the batch hot loop: node records are packed to
/// 16 hot bytes (feature, split bin, children) with leaf payloads in
/// separate arrays touched only at the leaf, and query codes are encoded
/// row-major (one row's codes share a cache line) instead of the
/// column-major EncodedFrame — a tree path reads one row's line plus
/// ~depth packed nodes. Aggregation is tree-outer like RandomForest::
/// Aggregate: one tree's nodes stay hot in L1 while the batch's codes
/// stream past, rather than re-missing the whole ensemble on every row.
/// The walk itself is branchless: leaves are packed as self-loops, every
/// row steps exactly the tree's max depth (a compare compiles to a
/// conditional move), and eight rows advance in flight so their
/// independent node loads overlap instead of serializing one dependent
/// chain. Per-batch scratch (codes, leaves, votes) is pre-allocated once
/// and reused, which is why Predict is non-const; a predictor is cheap
/// to construct but not safe to share across threads.
class FlatPredictor {
 public:
  /// Validates the model (FlatTreeModel::Validate) and packs the
  /// traversal arrays.
  static Result<FlatPredictor> Create(FlatTreeModel model);

  /// Ensemble prediction per row: majority vote / mean for forests,
  /// thresholded sigmoid score / raw score for boosters.
  Result<std::vector<double>> Predict(const data::DataFrame& x);

  /// P(class == 1) for classification, mean/raw score for regression —
  /// mirrors RandomForest::PredictProba / GradientBoostedTrees::
  /// PredictProba.
  Result<std::vector<double>> PredictProba(const data::DataFrame& x);

  const FlatTreeModel& model() const { return model_; }

 private:
  FlatPredictor() = default;

  Status CheckFrame(const data::DataFrame& x) const;
  /// Encodes the frame into the row-major codes_ buffer (row r's codes
  /// live at [r * num_features, (r + 1) * num_features)), bit-identical
  /// to FeatureBinner::Encode's lower_bound per value.
  void EncodeRows(const data::DataFrame& x);
  /// Walks all `n` encoded rows through tree `t` for exactly the tree's
  /// max depth (self-looping leaves absorb the spare steps) and leaves
  /// each row's leaf index in leaves_[r].
  void WalkBatch(size_t t, size_t n);

  /// Hot traversal record: 16 bytes, four per cache line. Leaves are
  /// packed as self-loops (feature 0, left == right == own index) so the
  /// fixed-depth walk never tests for them.
  struct PackedNode {
    int32_t feature = 0;    ///< Code column routed on (0 for leaves).
    uint8_t split_bin = 0;  ///< Go left if code <= split_bin.
    uint32_t left = 0;      ///< Absolute node index.
    uint32_t right = 0;
  };

  FlatTreeModel model_;
  std::vector<PackedNode> nodes_;
  /// Steps needed to pin every row of tree t on a leaf (its max depth).
  std::vector<uint32_t> tree_depths_;
  /// Per-batch scratch, grown once and reused across calls.
  std::vector<uint8_t> codes_;
  std::vector<uint32_t> leaves_;
  std::vector<uint32_t> votes_;
};

}  // namespace eafe::serve

#endif  // EAFE_SERVE_FLAT_PREDICTOR_H_
