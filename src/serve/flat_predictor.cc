#include "serve/flat_predictor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/string_util.h"

namespace eafe::serve {
namespace {

/// Same formula as the boosters' local Sigmoid: branch on the sign so
/// exp never overflows, and so flat scores transform bit-identically.
double Sigmoid(double s) {
  if (s >= 0.0) return 1.0 / (1.0 + std::exp(-s));
  const double e = std::exp(s);
  return e / (1.0 + e);
}

/// First index whose cut is not less than `v` — the std::lower_bound
/// index FeatureBinner::Encode computes, as a branch-predictor-friendly
/// halving loop (the comparisons compile to conditional moves, which
/// matters when encoding dominates batch predict).
size_t LowerBoundIndex(const double* cuts, size_t count, double v) {
  size_t first = 0;
  while (count > 0) {
    const size_t half = count / 2;
    if (cuts[first + half] < v) {
      first += half + 1;
      count -= half + 1;
    } else {
      count = half;
    }
  }
  return first;
}

}  // namespace

Result<FlatPredictor> FlatPredictor::Create(FlatTreeModel model) {
  EAFE_RETURN_NOT_OK(model.Validate());
  FlatPredictor predictor;
  predictor.model_ = std::move(model);
  const FlatTreeModel& m = predictor.model_;
  predictor.nodes_.resize(m.num_nodes());
  for (size_t i = 0; i < m.num_nodes(); ++i) {
    PackedNode& nd = predictor.nodes_[i];
    if (m.feature[i] < 0) {
      // Leaf: self-loop on feature 0 so spare fixed-depth steps stay put.
      nd.feature = 0;
      nd.split_bin = 0;
      nd.left = nd.right = static_cast<uint32_t>(i);
    } else {
      nd.feature = m.feature[i];
      nd.split_bin = m.split_bin[i];
      nd.left = static_cast<uint32_t>(m.left[i]);
      nd.right = static_cast<uint32_t>(m.right[i]);
    }
  }
  // Per-tree max depth drives the fixed-step batch walk. Validate
  // guarantees children point strictly forward, so one ascending pass
  // settles every node's depth.
  predictor.tree_depths_.assign(m.num_trees(), 0u);
  std::vector<uint32_t> depth(m.num_nodes(), 0u);
  for (size_t t = 0; t < m.num_trees(); ++t) {
    for (uint32_t i = m.tree_offsets[t]; i < m.tree_offsets[t + 1]; ++i) {
      if (m.feature[i] >= 0) {
        depth[static_cast<size_t>(m.left[i])] = depth[i] + 1;
        depth[static_cast<size_t>(m.right[i])] = depth[i] + 1;
      } else {
        predictor.tree_depths_[t] =
            std::max(predictor.tree_depths_[t], depth[i]);
      }
    }
  }
  return predictor;
}

Status FlatPredictor::CheckFrame(const data::DataFrame& x) const {
  if (x.num_columns() != static_cast<size_t>(model_.num_features)) {
    return Status::InvalidArgument(
        StrFormat("model fitted on %u features, got %zu",
                  model_.num_features, x.num_columns()));
  }
  return Status::OK();
}

void FlatPredictor::EncodeRows(const data::DataFrame& x) {
  const size_t n = x.num_rows();
  const size_t num_features = model_.num_features;
  codes_.resize(n * num_features);
  // Feature-outer keeps one feature's cuts hot in cache; writes stride
  // by the row width so a finished row's codes are contiguous.
  for (size_t f = 0; f < num_features; ++f) {
    const double* cuts = model_.cuts.data() + model_.cut_offsets[f];
    const size_t count =
        static_cast<size_t>(model_.cut_offsets[f + 1] -
                            model_.cut_offsets[f]);
    const std::vector<double>& values = x.column(f).values();
    uint8_t* out = codes_.data() + f;
    for (size_t r = 0; r < n; ++r) {
      out[r * num_features] =
          static_cast<uint8_t>(LowerBoundIndex(cuts, count, values[r]));
    }
  }
}

void FlatPredictor::WalkBatch(size_t t, size_t n) {
  leaves_.resize(n);
  const PackedNode* nodes = nodes_.data();
  const uint8_t* codes = codes_.data();
  uint32_t* leaves = leaves_.data();
  const size_t stride = model_.num_features;
  const uint32_t root = model_.tree_offsets[t];
  const uint32_t steps = tree_depths_[t];
  // kBlock rows in flight: each step is a conditional move on the row's
  // code, and distinct rows' node loads are independent, so the walk
  // overlaps cache latency instead of serializing one dependent chain.
  // Rows on shallow leaves spend the spare steps in their self-loop.
  constexpr size_t kBlock = 8;
  size_t r = 0;
  for (; r + kBlock <= n; r += kBlock) {
    const uint8_t* rows[kBlock];
    uint32_t cur[kBlock];
    for (size_t k = 0; k < kBlock; ++k) {
      rows[k] = codes + (r + k) * stride;
      cur[k] = root;
    }
    for (uint32_t d = 0; d < steps; ++d) {
      for (size_t k = 0; k < kBlock; ++k) {
        const PackedNode& nd = nodes[cur[k]];
        cur[k] = rows[k][static_cast<size_t>(nd.feature)] <= nd.split_bin
                     ? nd.left
                     : nd.right;
      }
    }
    for (size_t k = 0; k < kBlock; ++k) leaves[r + k] = cur[k];
  }
  for (; r < n; ++r) {
    const uint8_t* row = codes + r * stride;
    uint32_t cur = root;
    for (uint32_t d = 0; d < steps; ++d) {
      const PackedNode& nd = nodes[cur];
      cur = row[static_cast<size_t>(nd.feature)] <= nd.split_bin ? nd.left
                                                                 : nd.right;
    }
    leaves[r] = cur;
  }
}

Result<std::vector<double>> FlatPredictor::Predict(const data::DataFrame& x) {
  EAFE_RETURN_NOT_OK(CheckFrame(x));
  const size_t n = x.num_rows();
  const size_t num_trees = model_.num_trees();
  EncodeRows(x);
  const double* value = model_.value.data();
  std::vector<double> out(n);
  // All three shapes loop tree-outer: per row the leaf payloads still
  // accumulate in tree order, so the floating-point sums match the
  // in-memory row-at-a-time paths bit for bit.
  if (model_.kind == EnsembleKind::kBoostedSum) {
    std::fill(out.begin(), out.end(), model_.base_score);
    const double lr = model_.learning_rate;
    for (size_t t = 0; t < num_trees; ++t) {
      WalkBatch(t, n);
      for (size_t r = 0; r < n; ++r) out[r] += lr * value[leaves_[r]];
    }
    if (model_.task == data::TaskType::kClassification) {
      for (double& score : out) score = Sigmoid(score) > 0.5 ? 1.0 : 0.0;
    }
    return out;
  }
  if (model_.task == data::TaskType::kRegression) {
    for (size_t t = 0; t < num_trees; ++t) {
      WalkBatch(t, n);
      for (size_t r = 0; r < n; ++r) out[r] += value[leaves_[r]];
    }
    for (double& sum : out) sum /= static_cast<double>(num_trees);
    return out;
  }
  // Classification forest: majority vote over flat per-class counts,
  // lowest class id on ties (ascending scan, strict >) — the same rule
  // as RandomForest::Aggregate.
  const size_t width = model_.num_classes;
  votes_.assign(n * width, 0u);
  for (size_t t = 0; t < num_trees; ++t) {
    WalkBatch(t, n);
    for (size_t r = 0; r < n; ++r) {
      ++votes_[r * width + static_cast<size_t>(value[leaves_[r]])];
    }
  }
  for (size_t r = 0; r < n; ++r) {
    const uint32_t* row_votes = votes_.data() + r * width;
    uint32_t best_count = 0;
    size_t best_class = 0;
    for (size_t c = 0; c < width; ++c) {
      if (row_votes[c] > best_count) {
        best_count = row_votes[c];
        best_class = c;
      }
    }
    out[r] = static_cast<double>(best_class);
  }
  return out;
}

Result<std::vector<double>> FlatPredictor::PredictProba(
    const data::DataFrame& x) {
  EAFE_RETURN_NOT_OK(CheckFrame(x));
  const size_t n = x.num_rows();
  const size_t num_trees = model_.num_trees();
  EncodeRows(x);
  std::vector<double> out(n);
  if (model_.kind == EnsembleKind::kBoostedSum) {
    std::fill(out.begin(), out.end(), model_.base_score);
    const double lr = model_.learning_rate;
    const double* value = model_.value.data();
    for (size_t t = 0; t < num_trees; ++t) {
      WalkBatch(t, n);
      for (size_t r = 0; r < n; ++r) out[r] += lr * value[leaves_[r]];
    }
    if (model_.task == data::TaskType::kClassification) {
      for (double& score : out) score = Sigmoid(score);
    }
    return out;
  }
  // Forest: mean of per-tree leaf probabilities in tree order (equal to
  // the leaf mean for regression trees), as in RandomForest::
  // PredictProba.
  const double* proba = model_.proba.data();
  for (size_t t = 0; t < num_trees; ++t) {
    WalkBatch(t, n);
    for (size_t r = 0; r < n; ++r) out[r] += proba[leaves_[r]];
  }
  for (double& sum : out) sum /= static_cast<double>(num_trees);
  return out;
}

}  // namespace eafe::serve
