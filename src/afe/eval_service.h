#ifndef EAFE_AFE_EVAL_SERVICE_H_
#define EAFE_AFE_EVAL_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "afe/feature_space.h"
#include "core/status.h"
#include "ml/evaluator.h"
#include "ml/feature_binner.h"
#include "runtime/metrics.h"
#include "runtime/score_cache.h"

namespace eafe::afe {

/// Canonical transformation-signature hash of a candidate evaluation: a
/// 64-bit digest of the evaluator configuration, the task, and every
/// column (name and values) of the table the candidate would be scored on.
/// Built on hashing::MixHash — the same order-independent-seeded mixer the
/// weighted-MinHash canonicalization uses — so two requests collide only
/// when they would score byte-identical tables under identical settings.
uint64_t EvaluationSignature(const data::Dataset& dataset,
                             const ml::EvaluatorOptions& options);

/// A frozen epoch frame prepared for candidate scoring (DESIGN.md §12),
/// built by EvalService::PrepareFrame. When the configured model can
/// share a binner it holds the frame's table, its bins from one
/// FeatureBinner::Fit (the model's own BinFrame) and its signature
/// digest, so a candidate costs one column's binning and hashing; the
/// frame's codes are shared, never copied. Otherwise it holds only the
/// space and candidates take BuildCandidateDataset + ScoreDataset.
/// Immutable after construction and safe to read from concurrent eval
/// workers. It lives for one epoch: the space must not change while it
/// exists, and nothing is cached across epochs.
class EvalFrame {
 public:
  /// True when candidates are scored through the shared frame bins.
  bool shares_bins() const { return bins_ != nullptr; }

  /// How the candidate table BuildCandidateDataset(space, candidate)
  /// would hold the candidate, worked out without building it.
  struct CandidateKey {
    /// The candidate column's name there ("#cand" rename applied).
    std::string name;
    /// EvaluationSignature of that table, from the frame's signature and
    /// the same per-column fold EvaluationSignature applies.
    uint64_t signature = 0;
  };

  /// The candidate's key; the BuildCandidateDataset error when the
  /// candidate cannot be added. Requires shares_bins().
  Result<CandidateKey> Key(const SpaceFeature& candidate) const;

 private:
  friend class EvalService;

  const FeatureSpace* space_ = nullptr;
  /// space_->ToDataset(), kept only when bins_ is set.
  data::Dataset frame_;
  std::shared_ptr<const ml::FeatureBinner> bins_;
  uint64_t digest_ = 0;  ///< EvaluationSignature(frame_, options).
};

/// Cached candidate-evaluation front-end shared by every search method.
/// Each request is keyed by EvaluationSignature and answered from a
/// sharded LRU ScoreCache where possible. Scores are pure functions of
/// (table, evaluator config), so a cache hit returns exactly the score
/// the evaluator would have computed. The service is safe to call from
/// concurrent pipeline workers; parallel scoring returns the same scores
/// as serial scoring.
///
/// Accounting: every request bumps the evaluator's evaluation count (cache
/// hits via RecordCachedScore), keeping Table IV's requested-evaluation
/// numbers identical to the cache-free serial path. Model fits actually
/// paid are visible as cache misses in cache().stats().
class EvalService {
 public:
  struct Options {
    runtime::ScoreCache::Options cache;
  };

  /// `evaluator` is not owned and must outlive the service.
  explicit EvalService(const ml::TaskEvaluator* evaluator)
      : EvalService(evaluator, Options()) {}
  EvalService(const ml::TaskEvaluator* evaluator, const Options& options);

  /// Cached score of `dataset`: a candidate table from
  /// BuildCandidateDataset, or a base-score probe. Equal to
  /// evaluator().Score(dataset) whether or not the cache answers.
  Result<double> ScoreDataset(const data::Dataset& dataset);

  /// Prepares the frozen `space` for ScoreCandidate: one ToDataset, one
  /// Validate, one binning with the evaluator's BinFrame and one
  /// signature digest. Call once per epoch.
  std::unique_ptr<const EvalFrame> PrepareFrame(
      const FeatureSpace& space) const;

  /// Cached score of frame + candidate. Equal to
  /// ScoreDataset(BuildCandidateDataset(space, candidate)) — score,
  /// signature, cache hit and accounting — and fails with the same
  /// status, but with shared bins it builds no table and bins and hashes
  /// only the candidate column.
  Result<double> ScoreCandidate(const EvalFrame& frame,
                                const SpaceFeature& candidate);

  /// Candidate evaluations requested (cache hits included).
  size_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Requests answered from the cache, without a model fit.
  size_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

  const runtime::ScoreCache& cache() const { return cache_; }
  const ml::TaskEvaluator& evaluator() const { return *evaluator_; }

 private:
  /// Answers `signature` from the cache, or computes, caches and returns
  /// `compute()`.
  template <typename Compute>
  Result<double> CachedScore(uint64_t signature, const Compute& compute);

  const ml::TaskEvaluator* evaluator_;
  runtime::ScoreCache cache_;
  std::atomic<size_t> requests_{0};
  std::atomic<size_t> cache_hits_{0};
  /// Instruments captured from GlobalMetrics() at construction; owned by
  /// the gateway. Eval throughput (evaluations per second) is
  /// rate(evaluations) in any scraper.
  runtime::MetricCounter* metric_requests_;
  runtime::MetricCounter* metric_cache_hits_;
  runtime::MetricCounter* metric_evaluations_;
};

}  // namespace eafe::afe

#endif  // EAFE_AFE_EVAL_SERVICE_H_
