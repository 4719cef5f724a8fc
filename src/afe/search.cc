#include "afe/search.h"

#include "core/check.h"
#include "core/string_util.h"

namespace eafe::afe {

Result<PipelineMode> PipelineModeFromString(const std::string& text) {
  if (text == "sync") return PipelineMode::kSync;
  if (text == "async") return PipelineMode::kAsync;
  return Status::InvalidArgument("unknown pipeline mode '" + text +
                                 "' (expected sync or async)");
}

std::vector<double> BuildAgentState(int last_action, double last_reward,
                                    size_t group_size, double progress) {
  std::vector<double> state(kAgentStateDim, 0.0);
  if (last_action >= 0) {
    EAFE_CHECK_LT(static_cast<size_t>(last_action), kNumOperators);
    state[static_cast<size_t>(last_action)] = 1.0;
  }
  // Mild scaling keeps inputs O(1) for the tanh cell.
  state[kNumOperators] = static_cast<double>(group_size) / 8.0;
  state[kNumOperators + 1] = last_reward;
  state[kNumOperators + 2] = progress;
  return state;
}

Result<data::Dataset> BuildCandidateDataset(const FeatureSpace& space,
                                            const SpaceFeature& candidate) {
  data::Dataset dataset = space.ToDataset();
  data::Column column = candidate.column;
  if (!dataset.features.AddColumn(column).ok()) {
    column.set_name(column.name() + "#cand");
    EAFE_RETURN_NOT_OK(dataset.features.AddColumn(std::move(column)));
  }
  return dataset;
}

Status FinalizeSearchResult(const SearchOptions& options,
                            const data::Dataset& base_dataset,
                            SearchResult* result) {
  result->search_score = result->best_score;
  if (!options.honest_final_score) return Status::OK();
  // Two repeats of held-out-seed CV with at least 5 folds: the final
  // comparison should carry less fold noise than the search itself.
  double base_total = 0.0;
  double best_total = 0.0;
  for (uint64_t repeat = 0; repeat < 2; ++repeat) {
    ml::EvaluatorOptions honest_options = options.evaluator;
    honest_options.cv_folds = std::max<size_t>(honest_options.cv_folds, 5);
    honest_options.seed += 7919 + repeat * 104729;
    const ml::TaskEvaluator honest(honest_options);
    EAFE_ASSIGN_OR_RETURN(double base, honest.Score(base_dataset));
    EAFE_ASSIGN_OR_RETURN(double best, honest.Score(result->best_dataset));
    base_total += base;
    best_total += best;
  }
  result->base_score = base_total / 2.0;
  result->best_score = best_total / 2.0;
  return Status::OK();
}

}  // namespace eafe::afe
