#include "afe/search_pipeline.h"

#include <cstddef>
#include <utility>

#include "core/stopwatch.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {
namespace {

/// Filter step: pick the first attempt that passes the configured
/// pre-evaluation filter. Pure in (config, task) — kRandomDrop verdicts
/// were pre-drawn at generation time and FpeModel::PredictProbability
/// is const — so concurrent execution cannot change which attempt wins.
void FilterStage(const StepPipelineConfig& config, StepTask& task) {
  if (!task.status.ok() || task.skipped) return;
  if (task.pre_vetted) {
    task.chosen = task.attempts.empty() ? -1 : 0;
    return;
  }
  for (size_t i = 0; i < task.attempts.size(); ++i) {
    const StepAttempt& attempt = task.attempts[i];
    if (!attempt.generated) continue;
    bool passes = true;
    switch (config.filter) {
      case StepFilter::kNone:
        break;
      case StepFilter::kRandomDrop:
        passes = attempt.forced_verdict;
        break;
      case StepFilter::kFpe: {
        auto probability = config.fpe_model->PredictProbability(
            attempt.candidate.column.values());
        if (!probability.ok()) {
          task.status = probability.status();
          return;
        }
        passes = *probability >= config.fpe_accept_threshold;
        break;
      }
    }
    if (passes) {
      task.chosen = static_cast<int>(i);
      return;
    }
  }
}

/// Evaluation step: absolute downstream score of frame + chosen candidate.
/// Goes through EvalService::ScoreCandidate against the epoch's prepared
/// frame, so only the candidate column is binned and hashed, scores are
/// cached, and the evaluator's request accounting matches the serial
/// path exactly.
void EvalStage(const EvalFrame& frame, EvalService& eval_service,
               StepTask& task) {
  if (!task.status.ok() || task.chosen < 0) return;
  Stopwatch watch;
  auto score = eval_service.ScoreCandidate(
      frame, task.attempts[static_cast<size_t>(task.chosen)].candidate);
  if (!score.ok()) {
    task.status = score.status();
    return;
  }
  task.score = *score;
  task.evaluated = true;
  task.eval_seconds = watch.ElapsedSeconds();
}

}  // namespace

SearchStepPipeline::SearchStepPipeline(const StepPipelineConfig& config,
                                       const FeatureSpace* frame,
                                       EvalService* eval_service) {
  Stopwatch prepare_watch;
  frame_ = eval_service->PrepareFrame(*frame);
  prepare_seconds_ = prepare_watch.ElapsedSeconds();
  runtime::ThreadPool* pool =
      config.mode == PipelineMode::kAsync ? runtime::GlobalPool() : nullptr;

  // One stage: each worker filters its task and then evaluates the
  // survivor. The filter's share of the work ranges from none (NFS) to
  // about a third of an evaluation per candidate (E-AFE at 10k rows), so
  // any fixed split of threads between the two idles some of them. The
  // workers together occupy the whole pool for the epoch; nested
  // ParallelFor inside a stage call (MinHash slots, CV folds, trees)
  // detects the pool worker and runs inline.
  std::vector<runtime::Pipeline<StepTask>::StageSpec> stages(1);
  stages[0].name = "eval";
  stages[0].workers = pool != nullptr ? pool->num_threads() : 1;
  stages[0].queue_capacity = config.queue_capacity;
  stages[0].fn = [config, prepared = frame_.get(),
                  eval_service](StepTask& task) {
    FilterStage(config, task);
    EvalStage(*prepared, *eval_service, task);
  };

  runtime::Pipeline<StepTask>::Options pipeline_options;
  pipeline_options.pool = pool;
  pipeline_options.metric_prefix = "eafe_pipeline";
  pipeline_ = std::make_unique<runtime::Pipeline<StepTask>>(std::move(stages),
                                                            pipeline_options);
}

SearchStepPipeline::~SearchStepPipeline() = default;

bool SearchStepPipeline::async() const { return pipeline_->async(); }

void SearchStepPipeline::Submit(StepTask task) {
  pipeline_->Submit(std::move(task));
  ++submitted_;
}

Result<std::vector<StepTask>> SearchStepPipeline::Finish() {
  pipeline_->Close();
  std::vector<StepTask> tasks;
  tasks.reserve(submitted_);
  while (auto task = pipeline_->NextOrdered()) {
    tasks.push_back(std::move(*task));
  }
  // Every stage call has returned once the last task is out; the frame's
  // bins and table go at the epoch barrier, before the driver mutates
  // the space.
  frame_.reset();
  // Surface the first stage failure in submission order so error
  // reporting is independent of scheduling.
  for (const StepTask& task : tasks) {
    EAFE_RETURN_NOT_OK(task.status);
  }
  return tasks;
}

}  // namespace eafe::afe
