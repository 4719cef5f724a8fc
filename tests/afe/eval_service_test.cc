#include "afe/eval_service.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "afe/nfs.h"
#include "data/registry.h"
#include "ml/feature_binner.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {
namespace {

data::Dataset SmallTarget() {
  data::MaterializeOptions options;
  options.max_samples = 150;
  options.max_features = 5;
  return data::MakeTargetDatasetByName("PimaIndian", options).ValueOrDie();
}

ml::EvaluatorOptions QuickEvaluator() {
  ml::EvaluatorOptions options;
  options.cv_folds = 3;
  options.rf_trees = 4;
  options.rf_max_depth = 3;
  options.seed = 5;
  return options;
}

/// `count` syntactically valid candidates with distinct names.
std::vector<SpaceFeature> MakeCandidates(const FeatureSpace& space,
                                         size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<SpaceFeature> candidates;
  std::unordered_set<std::string> names;
  while (candidates.size() < count) {
    const size_t group = rng.UniformInt(space.num_groups());
    const FeatureSpace::Action action = space.SampleRandomAction(group, &rng);
    auto candidate = space.GenerateCandidate(action);
    if (!candidate.ok()) continue;
    if (!names.insert(candidate->column.name()).second) continue;
    candidates.push_back(std::move(candidate).ValueOrDie());
  }
  return candidates;
}

class EvalServiceTest : public ::testing::Test {
 protected:
  void TearDown() override { runtime::SetGlobalThreads(1); }
};

/// Candidate tables exactly as the search's eval stage builds them.
std::vector<data::Dataset> CandidateTables(
    const FeatureSpace& space, const std::vector<SpaceFeature>& candidates) {
  std::vector<data::Dataset> tables;
  for (const SpaceFeature& candidate : candidates) {
    tables.push_back(BuildCandidateDataset(space, candidate).ValueOrDie());
  }
  return tables;
}

TEST_F(EvalServiceTest, ScoreMatchesDirectEvaluatorScore) {
  runtime::SetGlobalThreads(1);
  const data::Dataset dataset = SmallTarget();
  FeatureSpace space(dataset, {});
  const std::vector<data::Dataset> tables =
      CandidateTables(space, MakeCandidates(space, 3, 21));

  ml::TaskEvaluator reference(QuickEvaluator());
  ml::TaskEvaluator evaluator(QuickEvaluator());
  EvalService service(&evaluator);
  for (const data::Dataset& table : tables) {
    const double expected = reference.Score(table).ValueOrDie();
    const double actual = service.ScoreDataset(table).ValueOrDie();
    EXPECT_EQ(actual, expected);  // Bit-identical, not just close.
  }
}

TEST_F(EvalServiceTest, CacheHitAndMissAccounting) {
  runtime::SetGlobalThreads(1);
  const data::Dataset dataset = SmallTarget();
  FeatureSpace space(dataset, {});
  const data::Dataset table =
      CandidateTables(space, MakeCandidates(space, 1, 3)).front();

  ml::TaskEvaluator evaluator(QuickEvaluator());
  EvalService service(&evaluator);
  const double first = service.ScoreDataset(table).ValueOrDie();
  const double second = service.ScoreDataset(table).ValueOrDie();
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.requests(), 2u);
  EXPECT_EQ(service.cache_hits(), 1u);
  // One model fit happened...
  EXPECT_EQ(service.cache().stats().insertions, 1u);
  // ...but the accounting matches the cache-free serial path.
  EXPECT_EQ(evaluator.evaluation_count(), 2u);
}

TEST_F(EvalServiceTest, SignatureTracksStateAndCandidate) {
  const data::Dataset dataset = SmallTarget();
  FeatureSpace space(dataset, {});
  const std::vector<SpaceFeature> candidates = MakeCandidates(space, 2, 13);
  const ml::EvaluatorOptions options = QuickEvaluator();

  const auto signature = [&](const SpaceFeature& candidate,
                             const ml::EvaluatorOptions& opts) {
    return EvaluationSignature(
        BuildCandidateDataset(space, candidate).ValueOrDie(), opts);
  };
  // Same request -> same signature; different candidate or different
  // evaluator settings -> different signature.
  EXPECT_EQ(signature(candidates[0], options),
            signature(candidates[0], options));
  EXPECT_NE(signature(candidates[0], options),
            signature(candidates[1], options));
  ml::EvaluatorOptions other_seed = options;
  other_seed.seed += 1;
  EXPECT_NE(signature(candidates[0], options),
            signature(candidates[0], other_seed));
}

TEST_F(EvalServiceTest, ParallelScoringMatchesSerialBitForBit) {
  const data::Dataset dataset = SmallTarget();
  FeatureSpace space(dataset, {});
  const std::vector<data::Dataset> tables =
      CandidateTables(space, MakeCandidates(space, 8, 31));

  runtime::SetGlobalThreads(1);
  ml::TaskEvaluator serial_evaluator(QuickEvaluator());
  EvalService serial(&serial_evaluator);
  std::vector<double> serial_scores;
  for (const data::Dataset& table : tables) {
    serial_scores.push_back(serial.ScoreDataset(table).ValueOrDie());
  }

  // Concurrent ScoreDataset calls on one service, as the pipeline's eval
  // workers make them; each writes only its own slot.
  runtime::SetGlobalThreads(4);
  const auto score_in_parallel = [&tables]() {
    ml::TaskEvaluator evaluator(QuickEvaluator());
    EvalService service(&evaluator);
    std::vector<double> scores(tables.size(), 0.0);
    runtime::ParallelFor(
        runtime::GlobalPool(), tables.size(), [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            scores[i] = service.ScoreDataset(tables[i]).ValueOrDie();
          }
        });
    EXPECT_EQ(evaluator.evaluation_count(), tables.size());
    return scores;
  };
  const std::vector<double> parallel_scores = score_in_parallel();
  EXPECT_EQ(parallel_scores, serial_scores);
  // Repeated parallel runs are identical to each other, too.
  EXPECT_EQ(score_in_parallel(), parallel_scores);
}

TEST_F(EvalServiceTest, SearchIsIdenticalAcrossThreadCounts) {
  // End-to-end determinism: a whole NFS run at --threads=1 and at
  // --threads=4 must produce the same scores, counts, and kept features.
  const data::Dataset dataset = SmallTarget();
  SearchOptions options;
  options.epochs = 2;
  options.steps_per_agent = 2;
  options.evaluator = QuickEvaluator();
  options.seed = 19;

  runtime::SetGlobalThreads(1);
  const SearchResult serial =
      NfsSearch(options).Run(dataset).ValueOrDie();
  runtime::SetGlobalThreads(4);
  const SearchResult parallel =
      NfsSearch(options).Run(dataset).ValueOrDie();

  EXPECT_EQ(serial.base_score, parallel.base_score);
  EXPECT_EQ(serial.best_score, parallel.best_score);
  EXPECT_EQ(serial.search_score, parallel.search_score);
  EXPECT_EQ(serial.features_generated, parallel.features_generated);
  EXPECT_EQ(serial.features_evaluated, parallel.features_evaluated);
  EXPECT_EQ(serial.features_kept, parallel.features_kept);
  EXPECT_EQ(serial.downstream_evaluations, parallel.downstream_evaluations);
  EXPECT_EQ(serial.best_dataset.features.ColumnNames(),
            parallel.best_dataset.features.ColumnNames());
}

/// A mid-search frame: the base features plus two accepted generated
/// features, so frame columns span several groups and orders.
FeatureSpace MidSearchSpace(const data::Dataset& dataset) {
  FeatureSpace space(dataset, {});
  size_t group = 0;
  for (SpaceFeature& feature : MakeCandidates(space, 2, 41)) {
    EXPECT_TRUE(space.Accept(group++, std::move(feature)).ok());
  }
  return space;
}

/// Candidates of a small search against `space`, plus one whose name
/// collides with a frame column (scored as "<name>#cand").
std::vector<SpaceFeature> SearchCandidates(const FeatureSpace& space) {
  std::vector<SpaceFeature> candidates = MakeCandidates(space, 10, 43);
  SpaceFeature collision;
  collision.column = candidates.front().column;
  collision.column.set_name(space.group(2).front().column.name());
  collision.order = 1;
  candidates.push_back(std::move(collision));
  return candidates;
}

/// The shared-binner RF the searches default to, and the exact RF, which
/// cannot share a binner.
std::vector<ml::EvaluatorOptions> SharingAndFallbackEvaluators() {
  ml::EvaluatorOptions exact = QuickEvaluator();
  exact.split_strategy = ml::SplitStrategy::kExact;
  return {QuickEvaluator(), exact};
}

// The epoch-frame path (frame bins widened by the candidate column, frame
// digest folded with it) scores and signs every candidate exactly as the
// candidate table would be — including a "#cand" rename — and the
// exact RF takes the table path.
TEST_F(EvalServiceTest, FrameScoreAndSignatureMatchCandidateTable) {
  runtime::SetGlobalThreads(1);
  const data::Dataset dataset = SmallTarget();
  const FeatureSpace space = MidSearchSpace(dataset);
  const std::vector<SpaceFeature> candidates = SearchCandidates(space);
  ASSERT_EQ(BuildCandidateDataset(space, candidates.back())
                .ValueOrDie()
                .features.columns()
                .back()
                .name(),
            candidates.back().column.name() + "#cand");

  for (const ml::EvaluatorOptions& options : SharingAndFallbackEvaluators()) {
    const bool shares = options.split_strategy == ml::SplitStrategy::kHistogram;
    SCOPED_TRACE(shares ? "histogram rf" : "exact rf");
    const ml::TaskEvaluator reference(options);
    EvalService reference_service(&reference);
    const ml::TaskEvaluator evaluator(options);
    EvalService service(&evaluator);
    const auto frame = service.PrepareFrame(space);
    EXPECT_EQ(frame->shares_bins(), shares);
    for (const SpaceFeature& candidate : candidates) {
      SCOPED_TRACE(candidate.column.name());
      const data::Dataset table =
          BuildCandidateDataset(space, candidate).ValueOrDie();
      EXPECT_EQ(service.ScoreCandidate(*frame, candidate).ValueOrDie(),
                reference_service.ScoreDataset(table).ValueOrDie());
      if (shares) {
        const EvalFrame::CandidateKey key = frame->Key(candidate).ValueOrDie();
        EXPECT_EQ(key.name, table.features.columns().back().name());
        EXPECT_EQ(key.signature, EvaluationSignature(table, options));
      }
    }
    // Same requests, same fits, same cache traffic as the table path.
    EXPECT_EQ(evaluator.evaluation_count(), reference.evaluation_count());
    EXPECT_EQ(service.requests(), reference_service.requests());
    EXPECT_EQ(service.cache().stats().insertions,
              reference_service.cache().stats().insertions);
    // A frame-path request hits entries the table path inserted: the two
    // signatures are one.
    const size_t hits = reference_service.cache_hits();
    for (const SpaceFeature& candidate : candidates) {
      EXPECT_TRUE(reference_service.ScoreCandidate(*frame, candidate).ok());
    }
    EXPECT_EQ(reference_service.cache_hits(), hits + candidates.size());
  }
}

// A non-finite candidate fails with the status Dataset::Validate gives the
// candidate table, under the name the column takes there.
TEST_F(EvalServiceTest, NonFiniteCandidateRejectedAsOnTheTablePath) {
  runtime::SetGlobalThreads(1);
  const data::Dataset dataset = SmallTarget();
  const FeatureSpace space = MidSearchSpace(dataset);
  std::vector<SpaceFeature> candidates = SearchCandidates(space);
  for (size_t i : {size_t{0}, candidates.size() - 1}) {  // Plain, renamed.
    candidates[i].column[3] = std::numeric_limits<double>::infinity();
  }
  for (const ml::EvaluatorOptions& options : SharingAndFallbackEvaluators()) {
    const ml::TaskEvaluator evaluator(options);
    EvalService service(&evaluator);
    const auto frame = service.PrepareFrame(space);
    for (size_t i : {size_t{0}, candidates.size() - 1}) {
      const Status expected =
          service
              .ScoreDataset(
                  BuildCandidateDataset(space, candidates[i]).ValueOrDie())
              .status();
      ASSERT_FALSE(expected.ok());
      const Status actual =
          service.ScoreCandidate(*frame, candidates[i]).status();
      EXPECT_EQ(actual.code(), expected.code());
      EXPECT_EQ(actual.message(), expected.message());
    }
  }
}

// Concurrent ScoreCandidate calls read one frame's shared bins, as the
// pipeline's eval workers do; scores match serial scoring bit for bit.
TEST_F(EvalServiceTest, ConcurrentFrameScoringMatchesSerial) {
  const data::Dataset dataset = SmallTarget();
  const FeatureSpace space = MidSearchSpace(dataset);
  const std::vector<SpaceFeature> candidates = MakeCandidates(space, 9, 47);

  runtime::SetGlobalThreads(1);
  const ml::TaskEvaluator serial_evaluator(QuickEvaluator());
  EvalService serial(&serial_evaluator);
  const auto serial_frame = serial.PrepareFrame(space);
  std::vector<double> expected;
  for (const SpaceFeature& candidate : candidates) {
    expected.push_back(
        serial.ScoreCandidate(*serial_frame, candidate).ValueOrDie());
  }

  runtime::SetGlobalThreads(4);
  const ml::TaskEvaluator evaluator(QuickEvaluator());
  EvalService service(&evaluator);
  const auto frame = service.PrepareFrame(space);
  std::vector<double> scores(candidates.size(), 0.0);
  runtime::ParallelFor(
      runtime::GlobalPool(), candidates.size(), [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          scores[i] = service.ScoreCandidate(*frame, candidates[i]).ValueOrDie();
        }
      });
  EXPECT_EQ(scores, expected);
}

// Each epoch bins its frame once, whatever the candidate count: a whole
// NFS search fits a binner once per epoch, once for the base score and
// once per honestly re-scored frame (base and selected).
TEST_F(EvalServiceTest, SearchBinsEachFrameOncePerEpoch) {
  runtime::SetGlobalThreads(4);
  const data::Dataset dataset = SmallTarget();
  SearchOptions options;
  options.epochs = 3;
  options.steps_per_agent = 3;
  options.evaluator = QuickEvaluator();
  options.seed = 23;
  const size_t before = ml::FeatureBinner::TotalFits();
  const SearchResult result = NfsSearch(options).Run(dataset).ValueOrDie();
  const size_t fits = ml::FeatureBinner::TotalFits() - before;
  EXPECT_EQ(fits, result.curve.size() + 1 + 2);
  EXPECT_GT(result.features_evaluated, fits);
}

}  // namespace
}  // namespace eafe::afe
