#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "afe/fpe_pretraining.h"
#include "data/synthetic.h"
#include "runtime/metrics.h"
#include "simd/simd.h"

namespace perfbench {
namespace {

constexpr size_t kTableRows = 10000;

}  // namespace

void Report::Fail(const std::string& why) {
  correct = false;
  notes.push_back("FAILED: " + why);
}

eafe::Result<eafe::data::Dataset> MakeReferenceTable(uint64_t seed,
                                                     uint64_t index) {
  // One fixed population (the fig9 smoke spec: 6 features, 2 informative,
  // 3 planted interactions, noise 0.25); every table is a 10,000-row
  // sample of it. Tables then differ the way two samples of one source
  // do, and NFS accepts one to three features on each, instead of
  // flipping between "nothing to find" and "six features" as fresh
  // generator seeds do (which moves a search's cost by 30%).
  eafe::data::SyntheticSpec spec;
  spec.name = "ref_10000x6";
  spec.task = eafe::data::TaskType::kClassification;
  spec.num_samples = 4 * kTableRows;
  spec.num_features = 6;
  spec.num_informative = 2;
  spec.num_interactions = 3;
  spec.noise = 0.25;
  spec.seed = 33763;
  EAFE_ASSIGN_OR_RETURN(eafe::data::Dataset population,
                        eafe::data::MakeSynthetic(spec));
  eafe::Rng rng(seed * 1000 + index);
  std::vector<size_t> rows(population.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  for (size_t i = 0; i < kTableRows; ++i) {
    std::swap(rows[i], rows[i + rng.UniformInt(rows.size() - i)]);
  }
  rows.resize(kTableRows);
  eafe::data::Dataset table = population.SelectRows(rows);
  table.name = spec.name;
  return table;
}

eafe::ml::EvaluatorOptions ReferenceEvaluator() {
  eafe::ml::EvaluatorOptions options;
  options.model = eafe::ml::ModelKind::kRandomForest;
  options.cv_folds = 3;
  options.rf_trees = 8;
  options.rf_max_depth = 5;
  options.seed = 7;
  options.split_strategy = eafe::ml::SplitStrategy::kHistogram;
  return options;
}

eafe::Result<eafe::fpe::FpeModel> PretrainReferenceFpe() {
  eafe::afe::FpePretrainingOptions options;
  options.trainer.dimensions = {48};
  options.trainer.schemes = {eafe::hashing::MinHashScheme::kCcws};
  options.trainer.evaluator = ReferenceEvaluator();
  options.generated_per_dataset = 16;
  options.seed = 38;
  const std::vector<eafe::data::Dataset> corpus =
      eafe::data::MakePublicCollection(8, 141.0 / 239.0, 106);
  EAFE_ASSIGN_OR_RETURN(eafe::fpe::FpeTrainingResult trained,
                        eafe::afe::PretrainFpe(corpus, options));
  return std::move(trained.model);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::map<std::string, double> GatewaySnapshot() {
  // The exposition names every family and its type; the values are then
  // read from the instruments themselves, because the text format prints
  // gauges and sums with six significant digits.
  eafe::runtime::MetricGateway* gateway = eafe::runtime::GlobalMetrics();
  eafe::simd::PublishDispatchCounts(gateway);
  std::map<std::string, double> samples;
  std::istringstream lines(gateway->TextExposition());
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string hash, keyword, name, type;
    words >> hash >> keyword >> name >> type;
    if (hash != "#" || keyword != "TYPE") continue;
    if (type == "counter") {
      samples[name] = static_cast<double>(gateway->Counter(name, "")->Value());
    } else if (type == "gauge") {
      samples[name] = gateway->Gauge(name, "")->Value();
    } else if (type == "histogram") {
      eafe::runtime::MetricHistogram* histogram =
          gateway->Histogram(name, "", {});
      samples[name + "_sum"] = histogram->Sum();
      samples[name + "_count"] = static_cast<double>(histogram->Count());
    }
  }
  return samples;
}

double SampleDelta(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   const std::string& prefix, const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : after) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const auto it = before.find(name);
    total += value - (it == before.end() ? 0.0 : it->second);
  }
  return total;
}

void AddSelfTimeMetrics(const Tracer& tracer, double run_seconds,
                        Report* report) {
  std::map<std::string, double> self = tracer.LayerSelfSeconds();
  self["bench"] -= report->untraced_seconds;
  const double traced_seconds = run_seconds - report->untraced_seconds;
  for (const char* layer : {"bench", "data", "hashing", "fpe", "ml", "afe",
                            "serve", "serve.server"}) {
    report->Add(std::string(layer) + ".self_frac",
                self[layer] / traced_seconds, "frac");
  }
}

}  // namespace perfbench
