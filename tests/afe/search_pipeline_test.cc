// Sync-vs-async equivalence sweep for the pipelined search (DESIGN.md
// §12): for every driver, --pipeline=async must produce bit-identical
// results to the synchronous oracle at any thread count. The sweep runs
// threads in {1, 2, 4, 16}; the global pool is rebuilt per point, and the
// suite restores the serial default afterwards so other tests are
// unaffected.

#include "afe/search_pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "afe/eafe.h"
#include "afe/fpe_pretraining.h"
#include "afe/nfs.h"
#include "afe/random_search.h"
#include "afe/search.h"
#include "core/check.h"
#include "data/registry.h"
#include "data/synthetic.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {
namespace {

data::Dataset SmallTarget() {
  data::MaterializeOptions options;
  options.max_samples = 150;
  options.max_features = 5;
  return data::MakeTargetDatasetByName("PimaIndian", options).ValueOrDie();
}

SearchOptions QuickSearch(PipelineMode mode) {
  SearchOptions options;
  options.epochs = 2;
  options.steps_per_agent = 2;
  options.evaluator.cv_folds = 3;
  options.evaluator.rf_trees = 4;
  options.evaluator.rf_max_depth = 3;
  options.seed = 33;
  options.pipeline = mode;
  options.pipeline_queue_capacity = 2;  // Tiny bound: exercise backpressure.
  return options;
}

/// Shared FPE model for the E-AFE points (training is the slow part).
const fpe::FpeTrainingResult& SharedFpe() {
  static const auto* kResult = [] {
    FpePretrainingOptions options;
    options.trainer.dimensions = {16};
    options.trainer.schemes = {hashing::MinHashScheme::kCcws};
    options.trainer.evaluator.cv_folds = 3;
    options.trainer.evaluator.rf_trees = 4;
    options.trainer.evaluator.rf_max_depth = 3;
    options.generated_per_dataset = 6;
    auto result =
        PretrainFpe(data::MakePublicCollection(4, 0.6, 91), options);
    EAFE_CHECK(result.ok());
    return new fpe::FpeTrainingResult(std::move(result).ValueOrDie());
  }();
  return *kResult;
}

SearchResult RunMethod(const std::string& method, PipelineMode mode,
                       size_t threads) {
  runtime::SetGlobalThreads(threads);
  SearchResult result;
  if (method == "random") {
    RandomSearch search(QuickSearch(mode));
    result = search.Run(SmallTarget()).ValueOrDie();
  } else if (method == "nfs") {
    NfsSearch search(QuickSearch(mode));
    result = search.Run(SmallTarget()).ValueOrDie();
  } else if (method == "eafe_d") {
    EafeSearch::Options options;
    options.search = QuickSearch(mode);
    options.variant = EafeSearch::Variant::kRandomDrop;
    options.max_generation_attempts = 2;
    EafeSearch search(options);
    result = search.Run(SmallTarget()).ValueOrDie();
  } else {
    EafeSearch::Options options;
    options.search = QuickSearch(mode);
    options.fpe_model = &SharedFpe().model;
    options.stage1_epochs = 2;
    options.max_generation_attempts = 2;
    EafeSearch search(options);
    result = search.Run(SmallTarget()).ValueOrDie();
  }
  runtime::SetGlobalThreads(1);  // Restore the serial default.
  return result;
}

/// Everything except timing and cache-hit counts must match bit for
/// bit. eval_cache_hits is excluded by contract: two async workers can
/// both miss on the same signature that the serial order would have
/// served from cache — scores are unaffected because evaluation is
/// pure.
void ExpectBitIdentical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.base_score, b.base_score);
  EXPECT_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.search_score, b.search_score);
  EXPECT_EQ(a.downstream_evaluations, b.downstream_evaluations);
  EXPECT_EQ(a.features_generated, b.features_generated);
  EXPECT_EQ(a.features_evaluated, b.features_evaluated);
  EXPECT_EQ(a.features_kept, b.features_kept);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].best_score, b.curve[i].best_score);
    EXPECT_EQ(a.curve[i].cumulative_evaluations,
              b.curve[i].cumulative_evaluations);
  }
  ASSERT_EQ(a.best_dataset.num_features(), b.best_dataset.num_features());
  const auto& cols_a = a.best_dataset.features.columns();
  const auto& cols_b = b.best_dataset.features.columns();
  for (size_t c = 0; c < cols_a.size(); ++c) {
    EXPECT_EQ(cols_a[c].name(), cols_b[c].name());
    EXPECT_EQ(cols_a[c].values(), cols_b[c].values());
  }
}

class SearchPipelineEquivalence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SearchPipelineEquivalence, AsyncMatchesSyncOracleAtAnyThreads) {
  const std::string method = GetParam();
  const SearchResult oracle = RunMethod(method, PipelineMode::kSync, 1);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{16}}) {
    SCOPED_TRACE(method + " threads=" + std::to_string(threads));
    const SearchResult async = RunMethod(method, PipelineMode::kAsync, threads);
    ExpectBitIdentical(oracle, async);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, SearchPipelineEquivalence,
                         ::testing::Values("random", "nfs", "eafe_d",
                                           "eafe_full"));

TEST(SearchPipelineTest, SyncOracleIsThreadInvariant) {
  // The oracle itself must not depend on --threads (PR 1 contract:
  // EvalService fan-out reduces in request order).
  const SearchResult at1 = RunMethod("nfs", PipelineMode::kSync, 1);
  const SearchResult at4 = RunMethod("nfs", PipelineMode::kSync, 4);
  ExpectBitIdentical(at1, at4);
}

TEST(SearchPipelineTest, AsyncRunPublishesQueueGauges) {
  // Queue instruments are registered only when the stages actually run
  // on the pool — their presence is how an operator confirms overlap
  // is live (README troubleshooting note).
  runtime::TextMetricGateway gateway;
  runtime::SetGlobalMetrics(&gateway);
  const SearchResult result = RunMethod("nfs", PipelineMode::kAsync, 4);
  runtime::SetGlobalMetrics(nullptr);
  EXPECT_GT(result.features_generated, 0u);
  const std::string exposition = gateway.TextExposition();
  // Filtering runs inside the eval stage's workers; there is no
  // separate filter stage to instrument.
  EXPECT_EQ(exposition.find("eafe_pipeline_filter_"), std::string::npos);
  EXPECT_NE(exposition.find("eafe_pipeline_eval_queue_depth"),
            std::string::npos);
  EXPECT_NE(exposition.find("eafe_pipeline_eval_items_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("eafe_pipeline_eval_busy_workers"),
            std::string::npos);
}

TEST(SearchPipelineTest, StepPipelineReordersAndFiltersDirectly) {
  // Unit-level: submit tasks whose eval cost is uneven and check
  // Finish() returns submission order with the right stages applied.
  data::Dataset dataset = SmallTarget();
  FeatureSpace::Options space_options;
  FeatureSpace space(dataset, space_options);
  ml::EvaluatorOptions evaluator_options;
  evaluator_options.cv_folds = 3;
  evaluator_options.rf_trees = 4;
  evaluator_options.rf_max_depth = 3;
  ml::TaskEvaluator evaluator(evaluator_options);
  EvalService eval_service(&evaluator);

  StepPipelineConfig config;
  config.mode = PipelineMode::kAsync;
  config.queue_capacity = 2;
  config.filter = StepFilter::kRandomDrop;

  runtime::SetGlobalThreads(4);
  {
    SearchStepPipeline pipeline(config, &space, &eval_service);
    Rng rng(7);
    for (size_t i = 0; i < 6; ++i) {
      StepTask task;
      task.group = i % space.num_groups();
      task.accept_group = task.group;
      StepAttempt attempt;
      attempt.action_index = i;
      auto candidate = space.GenerateCandidate(
          space.SampleRandomAction(task.group, &rng));
      if (candidate.ok()) {
        attempt.generated = true;
        attempt.candidate = std::move(candidate).ValueOrDie();
        attempt.forced_verdict = i % 2 == 0;  // Half pass the filter.
      }
      task.attempts.push_back(std::move(attempt));
      pipeline.Submit(std::move(task));
    }
    const std::vector<StepTask> tasks = pipeline.Finish().ValueOrDie();
    ASSERT_EQ(tasks.size(), 6u);
    for (size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(tasks[i].attempts.front().action_index, i);  // Order kept.
      const StepAttempt& attempt = tasks[i].attempts.front();
      if (attempt.generated && attempt.forced_verdict) {
        EXPECT_EQ(tasks[i].chosen, 0);
        EXPECT_TRUE(tasks[i].evaluated);
        EXPECT_TRUE(tasks[i].status.ok());
      } else {
        EXPECT_EQ(tasks[i].chosen, -1);
        EXPECT_FALSE(tasks[i].evaluated);
      }
    }
  }
  runtime::SetGlobalThreads(1);
}

}  // namespace
}  // namespace eafe::afe
