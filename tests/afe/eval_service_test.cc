#include "afe/eval_service.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "afe/nfs.h"
#include "data/registry.h"
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

}  // namespace
}  // namespace eafe::afe
