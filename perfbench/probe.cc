#include "probe.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "cli/query_line.h"
#include "core/approx_greedy.h"
#include "core/min_seed_cover.h"
#include "core/selector_registry.h"
#include "eval/metrics.h"
#include "service/query_context.h"
#include "service/render.h"
#include "walk/hitting_time_knn.h"
#include "wgraph/substrate.h"

namespace perfbench {
namespace {

using rwdom::QueryContext;

// The post-hoc metric protocol of `select` (service/engine.cc).
constexpr int32_t kSelectMetricSamples = 500;

/// Requests of each kind that are decomposed (the rest are only replayed
/// for the reference), and the executor/decomposition rounds each gets.
constexpr int kDecomposedPerKind = 16;
constexpr int kDecomposeRounds = 3;

/// Times `body`, records it as a span of `id` under `parent`, returns
/// the duration in microseconds.
template <typename Body>
double Timed(Tracer* tracer, int64_t id, const char* name, Body&& body) {
  const double start = NowUs();
  body();
  const double end = NowUs();
  if (tracer != nullptr) {
    tracer->Record({id, name, "replay", start, end});
  }
  return end - start;
}

std::string RenderJson(rwdom::ServiceResponse response) {
  std::ostringstream out;
  rwdom::Render(response, rwdom::OutputFormat::kJson, out);
  std::string text = out.str();
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

/// Runs `request` through the layers' public functions, appending each
/// call's time to `layers`. Returns the rendered response and the sum of
/// the timed calls. Only called for requests the executor just answered
/// on this context, so their index lookups and selector names succeed.
std::pair<std::string, double> Decompose(QueryContext& context,
                                         const Request& request,
                                         Tracer* tracer, int64_t id,
                                         LayerSamples* layers) {
  const rwdom::TransitionModel& model = context.substrate().model();
  const double n = context.substrate().num_nodes();
  double timed = 0.0;
  std::shared_ptr<const rwdom::InvertedWalkIndex> index;
  auto lookup = [&] {
    const double us = Timed(tracer, id, "service.index_lookup", [&] {
      index = *context.GetIndex(
          context.MakeKey(kWalkLength, request.samples, request.seed));
    });
    layers->index_lookup_us.push_back(us);
    timed += us;
  };
  auto metrics = [&](const std::vector<rwdom::NodeId>& seeds,
                     int32_t samples, uint64_t seed) {
    rwdom::MetricsResult result;
    const double us = Timed(tracer, id, "eval.metrics", [&] {
      result = rwdom::SampledMetrics(model, seeds, kWalkLength, samples, seed);
    });
    layers->metrics_us.push_back(us);
    layers->metrics_walk_steps.push_back(n * samples * (kWalkLength + 1));
    timed += us;
    return result;
  };

  rwdom::ServiceResponse response;
  switch (request.kind) {
    case RequestKind::kSelect: {
      lookup();
      rwdom::SelectorParams params;
      params.length = kWalkLength;
      params.num_samples = request.samples;
      params.seed = request.seed;
      std::unique_ptr<rwdom::Selector> selector =
          rwdom::MakeSelector(request.algorithm, &model, params).value();
      auto* approx = dynamic_cast<rwdom::ApproxGreedy*>(selector.get());
      approx->UsePrebuiltIndex(index);
      rwdom::SelectionResult result;
      const double us = Timed(tracer, id, "core.select",
                              [&] { result = selector->Select(request.k); });
      layers->select_us.push_back(us);
      layers->gain_evals.push_back(
          static_cast<double>(approx->last_num_evaluations()));
      timed += us;
      rwdom::SelectResponse select;
      select.algorithm = request.algorithm;
      select.substrate_kind = context.substrate().kind();
      select.seeds = std::move(result.selected);
      select.gains = std::move(result.gains);
      select.length = kWalkLength;
      select.metric_samples = kSelectMetricSamples;
      const rwdom::MetricsResult m =
          metrics(select.seeds, kSelectMetricSamples, request.seed + 1);
      select.aht = m.aht;
      select.ehn = m.ehn;
      response = std::move(select);
      break;
    }
    case RequestKind::kEvaluate: {
      rwdom::EvaluateResponse evaluate;
      evaluate.k = static_cast<int64_t>(request.seeds.size());
      evaluate.length = kWalkLength;
      evaluate.num_samples = request.samples;
      const rwdom::MetricsResult m =
          metrics(request.seeds, request.samples, request.seed);
      evaluate.aht = m.aht;
      evaluate.ehn = m.ehn;
      response = std::move(evaluate);
      break;
    }
    case RequestKind::kKnn: {
      rwdom::KnnResponse knn;
      knn.query = request.query;
      knn.mode = "exact";
      const double us = Timed(tracer, id, "walk.knn_exact", [&] {
        knn.neighbors = rwdom::ExactHittingTimeKnn(model, request.query,
                                                   request.k, kWalkLength);
      });
      layers->knn_exact_us.push_back(us);
      timed += us;
      response = std::move(knn);
      break;
    }
    case RequestKind::kCover: {
      lookup();
      const rwdom::ApproxGreedyOptions options{.length = kWalkLength,
                                               .num_replicates =
                                                   request.samples,
                                               .seed = request.seed,
                                               .lazy = true};
      rwdom::MinSeedCoverResult result;
      const double us = Timed(tracer, id, "core.cover", [&] {
        result = rwdom::MinSeedCover(model, request.alpha, options,
                                     index.get());
      });
      layers->cover_us.push_back(us);
      timed += us;
      rwdom::CoverResponse cover;
      cover.alpha = request.alpha;
      cover.seeds = std::move(result.selected);
      cover.coverage_after_pick = std::move(result.coverage_after_pick);
      cover.reached_target = result.reached_target;
      response = std::move(cover);
      break;
    }
    case RequestKind::kStats: {
      rwdom::StatsResponse stats;
      stats.stats = context.Stats();
      stats.with_index = request.with_index;
      if (request.with_index) {
        lookup();
        stats.index_length = kWalkLength;
        stats.index_samples = request.samples;
        stats.index_bytes = index->MemoryUsageBytes();
        stats.index_raw_bytes = index->UncompressedBytes();
        stats.index_entries = index->TotalEntries();
      }
      response = std::move(stats);
      break;
    }
  }
  std::string rendered;
  const double us = Timed(tracer, id, "service.render",
                          [&] { rendered = RenderJson(std::move(response)); });
  layers->render_us.push_back(us);
  timed += us;
  return {std::move(rendered), timed};
}

bool UsesIndex(const Request& request) {
  return request.kind == RequestKind::kSelect ||
         request.kind == RequestKind::kCover ||
         (request.kind == RequestKind::kStats && request.with_index);
}

}  // namespace

std::string NormalizeSeconds(const std::string& response) {
  static const std::string kKey = "\"seconds\":";
  std::string out;
  size_t from = 0;
  for (;;) {
    const size_t at = response.find(kKey, from);
    if (at == std::string::npos) break;
    size_t end = at + kKey.size();
    while (end < response.size() &&
           (std::isdigit(static_cast<unsigned char>(response[end])) ||
            response[end] == '.' || response[end] == '-' ||
            response[end] == '+' || response[end] == 'e' ||
            response[end] == 'E')) {
      ++end;
    }
    out.append(response, from, at - from);
    out += kKey + "<T>";
    from = end;
  }
  out.append(response, from, std::string::npos);
  return out;
}

Replay ReplayRequests(const std::string& graph_path,
                      const WorkloadSpec& spec,
                      const std::vector<const Request*>& distinct,
                      bool decompose, Tracer* tracer, int64_t first_id) {
  Replay replay;
  auto loaded = rwdom::LoadSubstrate(graph_path);
  if (!loaded.ok()) {
    replay.status = loaded.status();
    return replay;
  }
  QueryContext context(std::move(*loaded));
  for (const IndexParams& warm : spec.warm_indexes) {
    auto index =
        context.GetIndex(context.MakeKey(kWalkLength, warm.samples, warm.seed));
    if (!index.ok()) {
      replay.status = index.status();
      return replay;
    }
  }
  if (spec.warm_stats) context.Stats();

  std::map<RequestKind, int> decomposed_of_kind;
  for (size_t i = 0; i < distinct.size(); ++i) {
    const Request& request = *distinct[i];
    const int64_t id = first_id + static_cast<int64_t>(i);
    if (decompose && UsesIndex(request)) {
      const rwdom::ArtifactKey key =
          context.MakeKey(kWalkLength, request.samples, request.seed);
      const int64_t builds = context.index_builds();
      const double us = Timed(tracer, id, "index.build",
                              [&] { (void)context.GetIndex(key); });
      if (context.index_builds() > builds) {
        replay.layers.index_build_us.push_back(us);
      }
    }
    rwdom::Result<rwdom::ParsedRequest> parsed = rwdom::ParsedRequest{};
    double parse_us = Timed(tracer, id, "service.parse", [&] {
      parsed = rwdom::ParseRequestLine(request.line);
    });
    std::string response;
    rwdom::Status status = parsed.status();
    auto execute = [&] {
      return Timed(tracer, id, "cli.executor", [&] {
        response.clear();
        if (status.ok()) {
          status =
              rwdom::ExecuteRequestToJsonLine(*parsed, context, &response);
        }
      });
    };
    double exec_us = execute();
    replay.expected[request.line] =
        status.ok() ? NormalizeSeconds(response)
                    : "<error: " + status.ToString() + ">";
    replay.solo_exec_us[request.line] = exec_us;
    if (!decompose || !status.ok() ||
        decomposed_of_kind[request.kind]++ >= kDecomposedPerKind) {
      continue;
    }

    // Layer by layer: executor and decomposition alternate for
    // kDecomposeRounds rounds; each keeps its fastest round, so host
    // noise inflates neither side of the residual.
    LayerSamples best;
    double best_timed_us = 0.0;
    double slowest_exec_us = exec_us;
    for (int round = 0; round < kDecomposeRounds; ++round) {
      if (round > 0) {
        parse_us = std::min(parse_us, Timed(tracer, id, "service.parse", [&] {
                              parsed = rwdom::ParseRequestLine(request.line);
                            }));
        const double us = execute();
        exec_us = std::min(exec_us, us);
        slowest_exec_us = std::max(slowest_exec_us, us);
      }
      LayerSamples layers;
      auto [rendered, timed_us] =
          Decompose(context, request, tracer, id, &layers);
      if (NormalizeSeconds(rendered) != replay.expected[request.line]) {
        ++replay.layers.mismatches;
      }
      if (round == 0 || timed_us < best_timed_us) {
        best = std::move(layers);
        best_timed_us = timed_us;
      }
    }
    replay.solo_exec_us[request.line] = exec_us;
    LayerSamples& out = replay.layers;
    out.kinds.push_back(request.kind);
    out.parse_us.push_back(parse_us);
    out.solo_exec_us.push_back(exec_us);
    out.residual_us.push_back(exec_us - best_timed_us);
    out.exec_spread_us.push_back(slowest_exec_us - exec_us);
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(out.render_us, best.render_us);
    append(out.knn_exact_us, best.knn_exact_us);
    append(out.metrics_us, best.metrics_us);
    append(out.metrics_walk_steps, best.metrics_walk_steps);
    append(out.select_us, best.select_us);
    append(out.gain_evals, best.gain_evals);
    append(out.cover_us, best.cover_us);
    append(out.index_lookup_us, best.index_lookup_us);
  }
  return replay;
}

}  // namespace perfbench
