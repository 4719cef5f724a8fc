// The serve probe of the traced run: an in-process EafeServer holding
// the probe's forest and FPE containers, driven by an open-loop
// generator over two connections. Requests are sent on a seeded Poisson
// schedule whatever the replies do, and each is timed from the moment it
// was due, so a stall also charges the requests queued behind it. Every
// reply is checked bit for bit against a direct FlatPredictor /
// FpeModel call.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "common.h"
#include "serve/flat_predictor.h"
#include "serve/model_store.h"
#include "serve/server/client.h"
#include "serve/server/server.h"

namespace perfbench {
namespace {

namespace srv = eafe::serve::server;

constexpr int kConnections = 2;
constexpr size_t kBatchRows = 256;
constexpr size_t kFpeColumns = 16;
constexpr size_t kRowTemplates = 1024;
constexpr size_t kBatchTemplates = 32;
/// Request mix: single-row predicts, 256-row batches, FPE scorings. At 2%
/// FPE the p99 falls inside the FPE latencies rather than on the edge
/// between request kinds, where it would flip from run to run.
constexpr double kRowShare = 0.88;
constexpr double kBatchShare = 0.10;
/// Offered rate and length of the measured phase (after a warm-up at
/// the same rate): 1,000 requests, so ten lie beyond the p99.
constexpr double kRate = 500.0;
constexpr double kWarmupSeconds = 0.3;
constexpr double kPhaseSeconds = 2.0;

enum class Kind : uint8_t { kRow, kBatch, kFpe };

struct Item {
  const char* model = "forest";
  uint32_t rows = 0;
  uint32_t cols = 0;
  std::vector<double> values;    ///< Row-major request payload.
  std::vector<double> expected;  ///< Direct-call reply, bit for bit.
};

struct Templates {
  std::vector<Item> row, batch, fpe;
  const std::vector<Item>& of(Kind kind) const {
    return kind == Kind::kRow ? row : kind == Kind::kBatch ? batch : fpe;
  }
};

struct Planned {
  double due_s = 0;
  Kind kind = Kind::kRow;
  uint32_t item = 0;
};

enum Outcome : uint8_t { kPending, kOk, kWrong, kShed, kError };

struct PhaseResult {
  std::vector<double> latency_ms;  ///< Failed requests are +inf.
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  double latency_sum_s = 0;  ///< Over successful requests.
  double queue_depth_max = 0;
  bool connected = true;
};

/// Candidate columns for FPE scoring: products, ratios and logs of the
/// table's raw columns, as a search would generate them.
std::vector<double> MakeCandidateColumn(const eafe::data::Dataset& table,
                                        size_t index) {
  const auto& cols = table.features.columns();
  const std::vector<double>& a = cols[index % cols.size()].values();
  const std::vector<double>& b = cols[(index * 5 + 1) % cols.size()].values();
  std::vector<double> out(a.size());
  for (size_t r = 0; r < a.size(); ++r) {
    switch (index % 3) {
      case 0: out[r] = a[r] * b[r]; break;
      case 1: out[r] = a[r] / (std::fabs(b[r]) + 1.0); break;
      default: out[r] = std::log(std::fabs(a[r]) + 1.0) + b[r]; break;
    }
  }
  return out;
}

eafe::Status BuildTemplates(const eafe::data::Dataset& table,
                            eafe::serve::FlatPredictor* predictor,
                            const eafe::fpe::FpeModel& fpe, uint64_t seed,
                            Templates* out) {
  EAFE_ASSIGN_OR_RETURN(std::vector<double> proba,
                        predictor->PredictProba(table.features));
  const size_t n = table.num_rows();
  const size_t width = table.num_features();
  eafe::Rng rng(seed * 31 + 5);
  auto make_tree_item = [&](uint32_t rows) {
    Item item;
    item.rows = rows;
    item.cols = static_cast<uint32_t>(width);
    for (uint32_t r = 0; r < rows; ++r) {
      const size_t row = rng.UniformInt(static_cast<uint64_t>(n));
      for (size_t c = 0; c < width; ++c) {
        item.values.push_back(table.features.columns()[c].values()[row]);
      }
      item.expected.push_back(proba[row]);
    }
    return item;
  };
  for (size_t i = 0; i < kRowTemplates; ++i) {
    out->row.push_back(make_tree_item(1));
  }
  for (size_t i = 0; i < kBatchTemplates; ++i) {
    out->batch.push_back(make_tree_item(kBatchRows));
  }
  for (size_t i = 0; i < kFpeColumns; ++i) {
    Item item;
    item.model = "fpe";
    item.rows = 1;
    item.values = MakeCandidateColumn(table, i + seed % 7);
    item.cols = static_cast<uint32_t>(item.values.size());
    EAFE_ASSIGN_OR_RETURN(double p, fpe.PredictProbability(item.values));
    item.expected.push_back(p);
    out->fpe.push_back(std::move(item));
  }
  return eafe::Status::OK();
}

/// A seeded Poisson arrival schedule at `rate` for `seconds`.
std::vector<Planned> PlanPhase(const Templates& templates, double rate,
                               double seconds, uint64_t seed) {
  eafe::Rng rng(seed);
  std::vector<Planned> plan;
  double t = rng.Exponential(rate);
  while (t < seconds) {
    Planned p;
    p.due_s = t;
    const double u = rng.Uniform();
    p.kind = u < kRowShare ? Kind::kRow
             : u < kRowShare + kBatchShare ? Kind::kBatch
                                            : Kind::kFpe;
    p.item = static_cast<uint32_t>(
        rng.UniformInt(static_cast<uint64_t>(templates.of(p.kind).size())));
    plan.push_back(p);
    t += rng.Exponential(rate);
  }
  return plan;
}

const char* KindName(Kind kind) {
  return kind == Kind::kRow ? "predict_row"
         : kind == Kind::kBatch ? "predict_batch256"
                                : "fpe_score";
}

/// Sends `plan` open-loop over kConnections connections (request i on
/// connection i % kConnections) and collects every reply.
PhaseResult RunPhase(srv::EafeServer* server, const Templates& templates,
                     const std::vector<Planned>& plan, const Args& args,
                     Tracer* tracer) {
  PhaseResult result;
  const size_t n = plan.size();
  std::vector<srv::BlockingClient> clients;
  for (int c = 0; c < kConnections; ++c) {
    auto client = srv::BlockingClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      result.connected = false;
      return result;
    }
    clients.push_back(std::move(client).ValueOrDie());
  }
  std::vector<int64_t> due_ns(n), sent_ns(n, -1), done_ns(n, -1);
  std::vector<uint8_t> outcome(n, kPending);  // Written by receivers only.
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(5);
  const auto since_origin = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  const int64_t trace_origin = tracer->NowNs() + 5000000;
  for (size_t i = 0; i < n; ++i) {
    due_ns[i] = static_cast<int64_t>(plan[i].due_s * 1e9);
  }

  // Receivers: one per connection, matching replies to requests by id.
  std::atomic<size_t> answered{0};
  std::vector<std::thread> receivers;
  for (int c = 0; c < kConnections; ++c) {
    const size_t expected =
        n / kConnections + (static_cast<size_t>(c) < n % kConnections);
    receivers.emplace_back([&, c, expected] {
      for (size_t got = 0; got < expected; ++got) {
        auto reply = clients[static_cast<size_t>(c)].ReadReply();
        if (!reply.ok()) return;
        const int64_t now = since_origin(Clock::now());
        const uint64_t i = reply->request_id;
        if (i >= n || i % kConnections != static_cast<uint64_t>(c) ||
            outcome[i] != kPending) {
          continue;  // Unknown or duplicate id: the request stays lost.
        }
        done_ns[i] = now;
        answered.fetch_add(1);
        if (reply->type == srv::MessageType::kShedResponse) {
          outcome[i] = kShed;
          continue;
        }
        if (reply->type != srv::MessageType::kPredictResponse) {
          outcome[i] = kError;
          continue;
        }
        std::vector<double>& values = reply->values;
        if (args.corrupt_every > 0 && i % args.corrupt_every == 0 &&
            !values.empty()) {
          uint64_t bits;
          std::memcpy(&bits, &values[0], sizeof(bits));
          bits ^= 1;
          std::memcpy(&values[0], &bits, sizeof(bits));
        }
        const Item& item = templates.of(plan[i].kind)[plan[i].item];
        const bool same =
            values.size() == item.expected.size() &&
            std::memcmp(values.data(), item.expected.data(),
                        values.size() * sizeof(double)) == 0;
        outcome[i] = same ? kOk : kWrong;
        if (tracer->enabled()) {
          tracer->AddAsync("serve.server", KindName(plan[i].kind),
                           trace_origin + due_ns[i], trace_origin + now);
        }
      }
    });
  }
  for (size_t i = 0; i < n; ++i) {
    const auto due = origin + std::chrono::nanoseconds(due_ns[i]);
    std::this_thread::sleep_until(due - std::chrono::microseconds(50));
    while (Clock::now() < due) {
    }
    sent_ns[i] = since_origin(Clock::now());
    result.queue_depth_max = std::max(
        result.queue_depth_max, static_cast<double>(server->queue_depth()));
    const Item& item = templates.of(plan[i].kind)[plan[i].item];
    if (!clients[i % kConnections]
             .SendPredict(i, item.model, true, item.rows, item.cols,
                          item.values)
             .ok()) {
      sent_ns[i] = -1;  // Never answered; counted as lost below.
    }
  }
  // Replies still queued in the server would be dropped if the
  // connections closed now, so wait for them; a reply still missing after
  // the grace period is lost, and half-closing ends its receiver.
  const auto grace_end = Clock::now() + std::chrono::seconds(10);
  while (answered.load() < n && Clock::now() < grace_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& client : clients) client.ShutdownWrite();
  for (auto& receiver : receivers) receiver.join();

  for (size_t i = 0; i < n; ++i) {
    ++result.attempted;
    result.late_ms.push_back(
        sent_ns[i] < 0 ? 0.0
                       : static_cast<double>(sent_ns[i] - due_ns[i]) * 1e-6);
    if (outcome[i] != kOk) {
      ++result.failed;
      result.wrong += outcome[i] == kWrong;
      result.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    const double latency_s = static_cast<double>(done_ns[i] - due_ns[i]) * 1e-9;
    result.latency_ms.push_back(latency_s * 1e3);
    result.latency_sum_s += latency_s;
  }
  return result;
}

/// Percentile `p` of a phase's latencies in ms. A failed request counts
/// as infinitely slow; if one lands on the percentile it reads 1e6 ms.
double PercentileMs(const std::vector<double>& latency_ms, double p) {
  const double value = Percentile(latency_ms, p);
  return std::isfinite(value) ? value : 1e6;
}

}  // namespace

ServeFigures RunServeProbe(const Args& args, const eafe::data::Dataset& table,
                           const std::string& forest_path,
                           const std::string& fpe_path, Tracer* tracer,
                           Report* report) {
  ServeFigures serve;
  Tracer::Span probe_span(tracer, "bench", "serve probe");
  std::unique_ptr<srv::EafeServer> server;
  {
    Tracer::Span span(tracer, "serve.server", "EafeServer start");
    auto created = srv::EafeServer::Create(srv::EafeServer::Options());
    if (!created.ok()) {
      report->Fail(created.status().ToString());
      return serve;
    }
    server = std::move(created).ValueOrDie();
    for (const auto& [id, path] :
         {std::pair{"forest", forest_path}, std::pair{"fpe", fpe_path}}) {
      const eafe::Status added = server->AddModelFile(id, path);
      if (!added.ok()) {
        report->Fail(added.ToString());
        return serve;
      }
    }
    const eafe::Status started = server->Start();
    if (!started.ok()) {
      report->Fail(started.ToString());
      return serve;
    }
  }

  // The reference answers: direct calls on the same containers.
  Templates templates;
  {
    Tracer::Span span(tracer, "bench", "reference answers");
    auto forest = eafe::serve::LoadModel(forest_path);
    auto fpe = eafe::serve::LoadModel(fpe_path);
    if (!forest.ok() || !fpe.ok() || !forest->tree || !fpe->fpe) {
      report->Fail("cannot load the model containers");
      return serve;
    }
    auto predictor = eafe::serve::FlatPredictor::Create(*forest->tree);
    if (!predictor.ok()) {
      report->Fail(predictor.status().ToString());
      return serve;
    }
    const eafe::Status built =
        BuildTemplates(table, &*predictor, *fpe->fpe, args.seed, &templates);
    if (!built.ok()) {
      report->Fail(built.ToString());
      return serve;
    }
  }

  // Every request counts as attempted; a wrong, missing, shed or error
  // reply is a failure.
  const auto absorb = [&](const PhaseResult& phase) {
    if (!phase.connected) report->Fail("cannot connect to the server");
    report->attempted += phase.attempted;
    report->failed += phase.failed;
    if (phase.wrong > 0) {
      report->Fail(std::to_string(phase.wrong) +
                   " serve replies differ from the direct call");
    }
  };
  const uint64_t plan_seed = args.seed * 1000003;
  Tracer untraced(false, 0);
  absorb(RunPhase(server.get(), templates,
                  PlanPhase(templates, kRate, kWarmupSeconds, plan_seed + 7),
                  args, &untraced));
  const auto before = GatewaySnapshot();
  const srv::EafeServer::Stats stats_before = server->stats();
  PhaseResult phase;
  {
    Tracer::Span span(tracer, "bench", "open-loop phase");
    phase = RunPhase(server.get(), templates,
                     PlanPhase(templates, kRate, kPhaseSeconds, plan_seed),
                     args, tracer);
  }
  absorb(phase);
  const auto after = GatewaySnapshot();
  const srv::EafeServer::Stats stats_after = server->stats();
  server->Stop();

  const auto delta = [&](const std::string& name) {
    return SampleDelta(before, after, name, "");
  };
  serve.predict_p50_ms = PercentileMs(phase.latency_ms, 50);
  serve.predict_p99_ms = PercentileMs(phase.latency_ms, 99);
  serve.send_late_p99_ms = Percentile(phase.late_ms, 99);
  serve.batches =
      static_cast<double>(stats_after.batches - stats_before.batches);
  const double batch_count = delta("eafe_server_batch_rows_count");
  serve.batch_rows_mean =
      batch_count > 0 ? delta("eafe_server_batch_rows_sum") / batch_count : 0;
  serve.queue_depth_max = phase.queue_depth_max;
  const double request_count = delta("eafe_server_request_seconds_count");
  const double ok = static_cast<double>(phase.attempted - phase.failed);
  const double client_mean_s = ok > 0 ? phase.latency_sum_s / ok : 0;
  serve.request_share =
      request_count > 0 && client_mean_s > 0
          ? delta("eafe_server_request_seconds_sum") / request_count /
                client_mean_s
          : 0;
  serve.shed = static_cast<double>(stats_after.shed - stats_before.shed);
  char line[200];
  std::snprintf(line, sizeof(line),
                "serve probe: %zu requests at %.0f req/s offered, p50 %.4f "
                "ms, p99 %.4f ms, generator late p99 %.4f ms",
                phase.latency_ms.size(), kRate, serve.predict_p50_ms,
                serve.predict_p99_ms, serve.send_late_p99_ms);
  report->Note(line);
  return serve;
}

}  // namespace perfbench
