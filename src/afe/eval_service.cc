#include "afe/eval_service.h"

#include <bit>
#include <string>
#include <vector>

#include "afe/search.h"
#include "core/check.h"
#include "hashing/minhash.h"

namespace eafe::afe {
namespace {

// FNV-1a over a string, folded into the running digest through MixHash so
// column order matters (column order affects per-split feature sampling,
// hence scores).
uint64_t HashString(uint64_t digest, uint64_t position,
                    const std::string& text) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001B3ULL;
  }
  return hashing::MixHash(digest, position, h);
}

uint64_t HashValues(uint64_t digest, uint64_t position,
                    const std::vector<double>& values) {
  uint64_t h = 0x84222325CBF29CE4ULL;
  for (double v : values) {
    h = (h ^ std::bit_cast<uint64_t>(v)) * 0x100000001B3ULL;
  }
  return hashing::MixHash(digest, position, h);
}

/// Positions the signature header takes before the first column.
constexpr uint64_t kHeaderPositions = 17;

/// EvaluationSignature's per-column step: folds feature column `index`
/// (its name, then its values) into `digest`. EvaluationSignature is the
/// header (configuration, task, labels) folded with every column in
/// order, so the signature of a frame widened by one column is this fold
/// applied to the frame's signature — which is how EvalFrame::Key signs
/// a candidate without hashing the frame again.
uint64_t FoldSignatureColumn(uint64_t digest, size_t index,
                             const std::string& name,
                             const std::vector<double>& values) {
  const uint64_t position = kHeaderPositions + 2 * index;
  digest = HashString(digest, position, name);
  return HashValues(digest, position + 1, values);
}

}  // namespace

uint64_t EvaluationSignature(const data::Dataset& dataset,
                             const ml::EvaluatorOptions& options) {
  uint64_t digest = 0x45AF3A1E9C2D7B51ULL;
  uint64_t position = 0;
  digest = hashing::MixHash(digest, position++,
                            static_cast<uint64_t>(options.model));
  digest = hashing::MixHash(digest, position++, options.cv_folds);
  digest = hashing::MixHash(digest, position++, options.seed);
  digest = hashing::MixHash(digest, position++, options.rf_trees);
  digest = hashing::MixHash(digest, position++, options.rf_max_depth);
  digest = hashing::MixHash(digest, position++,
                            static_cast<uint64_t>(options.split_strategy));
  digest = hashing::MixHash(digest, position++, options.max_bins);
  digest = hashing::MixHash(digest, position++, options.nn_epochs);
  digest = hashing::MixHash(digest, position++, options.linear_epochs);
  digest = hashing::MixHash(digest, position++, options.gbdt_rounds);
  digest = hashing::MixHash(
      digest, position++,
      std::bit_cast<uint64_t>(options.gbdt_learning_rate));
  digest = hashing::MixHash(digest, position++, options.gbdt_max_depth);
  digest = hashing::MixHash(digest, position++,
                            std::bit_cast<uint64_t>(options.gbdt_subsample));
  digest = hashing::MixHash(digest, position++,
                            std::bit_cast<uint64_t>(options.gbdt_lambda));
  digest = hashing::MixHash(digest, position++,
                            static_cast<uint64_t>(dataset.task));
  digest = hashing::MixHash(digest, position++, dataset.num_rows());
  digest = HashValues(digest, position++, dataset.labels);
  EAFE_CHECK_EQ(position, kHeaderPositions);
  for (size_t c = 0; c < dataset.features.num_columns(); ++c) {
    const data::Column& column = dataset.features.column(c);
    digest = FoldSignatureColumn(digest, c, column.name(), column.values());
  }
  return digest;
}

Result<EvalFrame::CandidateKey> EvalFrame::Key(
    const SpaceFeature& candidate) const {
  CandidateKey key;
  EAFE_ASSIGN_OR_RETURN(key.name,
                        CandidateColumnName(frame_.features, candidate.column));
  key.signature = FoldSignatureColumn(digest_, frame_.num_features(),
                                      key.name, candidate.column.values());
  return key;
}

EvalService::EvalService(const ml::TaskEvaluator* evaluator,
                         const Options& options)
    : evaluator_(evaluator),
      cache_(options.cache),
      metric_requests_(runtime::GlobalMetrics()->Counter(
          "eafe_eval_requests_total",
          "Candidate evaluations requested (cache hits included)")),
      metric_cache_hits_(runtime::GlobalMetrics()->Counter(
          "eafe_eval_cache_hits_total",
          "Evaluation requests served without a model fit")),
      metric_evaluations_(runtime::GlobalMetrics()->Counter(
          "eafe_eval_evaluations_total",
          "Model fits actually executed (unique cache misses)")) {}

template <typename Compute>
Result<double> EvalService::CachedScore(uint64_t signature,
                                        const Compute& compute) {
  if (std::optional<double> cached = cache_.Lookup(signature)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    metric_cache_hits_->Increment();
    evaluator_->RecordCachedScore();
    return *cached;
  }
  EAFE_ASSIGN_OR_RETURN(double score, compute());
  metric_evaluations_->Increment();
  cache_.Insert(signature, score);
  return score;
}

Result<double> EvalService::ScoreDataset(const data::Dataset& dataset) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  metric_requests_->Increment();
  return CachedScore(EvaluationSignature(dataset, evaluator_->options()),
                     [&] { return evaluator_->Score(dataset); });
}

std::unique_ptr<const EvalFrame> EvalService::PrepareFrame(
    const FeatureSpace& space) const {
  auto frame = std::make_unique<EvalFrame>();
  frame->space_ = &space;
  data::Dataset table = space.ToDataset();
  // A frame that fails validation or binning keeps the per-candidate
  // path, which reports the same error for every candidate.
  auto bins = evaluator_->BinFrame(table);
  if (bins.ok() && *bins != nullptr) {
    frame->digest_ = EvaluationSignature(table, evaluator_->options());
    frame->frame_ = std::move(table);
    frame->bins_ = std::move(bins).ValueOrDie();
  }
  return frame;
}

Result<double> EvalService::ScoreCandidate(const EvalFrame& frame,
                                           const SpaceFeature& candidate) {
  if (!frame.shares_bins()) {
    EAFE_ASSIGN_OR_RETURN(const data::Dataset dataset,
                          BuildCandidateDataset(*frame.space_, candidate));
    return ScoreDataset(dataset);
  }
  const data::Column& column = candidate.column;
  EAFE_ASSIGN_OR_RETURN(const EvalFrame::CandidateKey key,
                        frame.Key(candidate));
  requests_.fetch_add(1, std::memory_order_relaxed);
  metric_requests_->Increment();
  return CachedScore(key.signature, [&]() -> Result<double> {
    // The frame passed Dataset::Validate in PrepareFrame; this is the
    // same check on the one column the candidate table adds.
    EAFE_RETURN_NOT_OK(data::ValidateFeatureColumn(column, key.name));
    auto bins = std::make_shared<ml::FeatureBinner>(*frame.bins_);
    EAFE_RETURN_NOT_OK(bins->AppendColumn(column));
    return evaluator_->ScoreBinned(frame.frame_.task, frame.frame_.labels,
                                   std::move(bins));
  });
}

}  // namespace eafe::afe
