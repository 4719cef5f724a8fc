#include "afe/search.h"

#include <algorithm>
#include <memory>

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

Result<std::string> CandidateColumnName(const data::DataFrame& frame,
                                        const data::Column& column) {
  if (frame.CheckNewColumn(column.name(), column.size()).ok()) {
    return column.name();
  }
  std::string renamed = column.name() + "#cand";
  EAFE_RETURN_NOT_OK(frame.CheckNewColumn(renamed, column.size()));
  return renamed;
}

Result<data::Dataset> BuildCandidateDataset(const FeatureSpace& space,
                                            const SpaceFeature& candidate) {
  data::Dataset dataset = space.ToDataset();
  data::Column column = candidate.column;
  EAFE_ASSIGN_OR_RETURN(std::string name,
                        CandidateColumnName(dataset.features, column));
  column.set_name(std::move(name));
  EAFE_RETURN_NOT_OK(dataset.features.AddColumn(std::move(column)));
  return dataset;
}

Status FinalizeSearchResult(const SearchOptions& options,
                            const data::Dataset& base_dataset,
                            SearchResult* result) {
  result->search_score = result->best_score;
  if (!options.honest_final_score) return Status::OK();
  // Two repeats of held-out-seed CV with at least 5 folds: the final
  // comparison should carry less fold noise than the search itself. The
  // seed moves only the folds, so each frame is binned once and both
  // repeats score through the shared bins (when the model can share).
  const auto honest_options = [&options](uint64_t repeat) {
    ml::EvaluatorOptions honest = options.evaluator;
    honest.cv_folds = std::max<size_t>(honest.cv_folds, 5);
    honest.seed += 7919 + repeat * 104729;
    return honest;
  };
  const ml::TaskEvaluator binning(honest_options(0));
  EAFE_ASSIGN_OR_RETURN(const auto base_bins, binning.BinFrame(base_dataset));
  EAFE_ASSIGN_OR_RETURN(const auto best_bins,
                        binning.BinFrame(result->best_dataset));
  const auto score = [](const ml::TaskEvaluator& honest,
                        const data::Dataset& dataset,
                        const std::shared_ptr<const ml::FeatureBinner>& bins) {
    return bins != nullptr
               ? honest.ScoreBinned(dataset.task, dataset.labels, bins)
               : honest.Score(dataset);
  };
  double base_total = 0.0;
  double best_total = 0.0;
  for (uint64_t repeat = 0; repeat < 2; ++repeat) {
    const ml::TaskEvaluator honest(honest_options(repeat));
    EAFE_ASSIGN_OR_RETURN(double base, score(honest, base_dataset, base_bins));
    EAFE_ASSIGN_OR_RETURN(double best,
                          score(honest, result->best_dataset, best_bins));
    base_total += base;
    best_total += best;
  }
  result->base_score = base_total / 2.0;
  result->best_score = best_total / 2.0;
  return Status::OK();
}

}  // namespace eafe::afe
