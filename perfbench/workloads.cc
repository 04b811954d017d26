#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "util/strings.h"

namespace perfbench {
namespace {

using rwdom::NodeId;
using rwdom::StrFormat;

// select-warm: one prebuilt key, k in [4, 8], F1 or F2.
constexpr IndexParams kSelectKey{100, 7};
constexpr int32_t kSelectMinK = 4;
constexpr int32_t kSelectMaxK = 8;

// mixed-open: arrival rate, heavy share (1 in kHeavyBlock), request shapes.
constexpr double kOpenArrivalsPerSecond = 100.0;
constexpr int kOpenConnections = 4;
constexpr int kHeavyBlock = 20;
constexpr int32_t kEvaluateSeeds = 10;
constexpr int32_t kEvaluateSamples = 500;
constexpr uint64_t kEvaluateSeed = 11;
constexpr double kLightStatsShare = 0.2;
constexpr int32_t kKnnK = 10;

// index-churn: 8 keys, Zipf-like skew, the cache holds 3. At R=20 an
// index (~0.7 MB) and its build scratch stay inside one core's L2; at
// R=50 (~1.8 MB) they sat on the L2 boundary, and a neighbour's L3 traffic
// moved cover and build times by more than 2x between runs.
constexpr int kChurnKeys = 8;
constexpr int32_t kChurnSamples = 20;
constexpr uint64_t kChurnFirstSeed = 101;
constexpr double kChurnSkew = 1.5;
constexpr int kChurnCacheIndexes = 3;
constexpr double kChurnStatsShare = 0.3;
constexpr double kCoverAlpha = 0.5;

Request MakeSelect(const std::string& algorithm, int32_t k,
                   IndexParams key) {
  Request request;
  request.kind = RequestKind::kSelect;
  request.algorithm = algorithm;
  request.k = k;
  request.samples = key.samples;
  request.seed = key.seed;
  request.line = StrFormat(
      "{\"command\": \"select\", \"flags\": {\"algorithm\": \"%s\", "
      "\"k\": %d, \"L\": %d, \"R\": %d, \"seed\": %llu}}",
      algorithm.c_str(), k, kWalkLength, key.samples,
      static_cast<unsigned long long>(key.seed));
  return request;
}

Request MakeEvaluate(std::vector<NodeId> seeds) {
  Request request;
  request.kind = RequestKind::kEvaluate;
  request.heavy = true;
  request.samples = kEvaluateSamples;
  request.seed = kEvaluateSeed;
  std::string list;
  for (NodeId node : seeds) {
    if (!list.empty()) list += ",";
    list += std::to_string(node);
  }
  request.seeds = std::move(seeds);
  request.line = StrFormat(
      "{\"command\": \"evaluate\", \"flags\": {\"seeds\": \"%s\", "
      "\"L\": %d, \"R\": %d, \"seed\": %llu}}",
      list.c_str(), kWalkLength, kEvaluateSamples,
      static_cast<unsigned long long>(kEvaluateSeed));
  return request;
}

Request MakeKnn(NodeId query) {
  Request request;
  request.kind = RequestKind::kKnn;
  request.query = query;
  request.k = kKnnK;
  request.line = StrFormat(
      "{\"command\": \"knn\", \"flags\": {\"query\": %d, \"k\": %d, "
      "\"L\": %d}}",
      query, kKnnK, kWalkLength);
  return request;
}

Request MakeCover(IndexParams key) {
  Request request;
  request.kind = RequestKind::kCover;
  request.alpha = kCoverAlpha;
  request.samples = key.samples;
  request.seed = key.seed;
  request.line = StrFormat(
      "{\"command\": \"cover\", \"flags\": {\"alpha\": %.2f, \"L\": %d, "
      "\"R\": %d, \"seed\": %llu}}",
      kCoverAlpha, kWalkLength, key.samples,
      static_cast<unsigned long long>(key.seed));
  return request;
}

Request MakeStats(const IndexParams* key) {
  Request request;
  request.kind = RequestKind::kStats;
  if (key == nullptr) {
    request.line = "{\"command\": \"stats\"}";
    return request;
  }
  request.with_index = true;
  request.samples = key->samples;
  request.seed = key->seed;
  request.line = StrFormat(
      "{\"command\": \"stats\", \"flags\": {\"with_index\": true, "
      "\"L\": %d, \"R\": %d, \"seed\": %llu}}",
      kWalkLength, key->samples, static_cast<unsigned long long>(key->seed));
  return request;
}

}  // namespace

rwdom::Result<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "select-warm") {
    spec.warm_indexes = {kSelectKey};
  } else if (name == "mixed-open") {
    spec.open_loop = true;
    spec.connections = kOpenConnections;
    spec.arrivals_per_second = kOpenArrivalsPerSecond;
    spec.warm_stats = true;
  } else if (name == "index-churn") {
    spec.cache_indexes = kChurnCacheIndexes;
    for (int i = 0; i < kChurnKeys; ++i) {
      spec.churn_keys.push_back({kChurnSamples, kChurnFirstSeed + i});
    }
  } else {
    return rwdom::Status::NotFound(
        "unknown workload: " + name +
        " (want select-warm, mixed-open or index-churn)");
  }
  return spec;
}

ClosedStream::ClosedStream(const WorkloadSpec& spec, NodeId num_nodes,
                           uint64_t seed)
    : spec_(spec), num_nodes_(num_nodes), rng_(rwdom::MixSeeds(seed, 1)) {
  double total = 0.0;
  for (size_t i = 0; i < spec_.churn_keys.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kChurnSkew);
    key_cdf_.push_back(total);
  }
  for (double& bound : key_cdf_) bound /= total;
}

Request ClosedStream::Next() {
  if (spec_.churn_keys.empty()) {
    // Every block holds each (algorithm, k) once, in seeded order, so the
    // request mix (and with it where p50 and p90 fall) is the same on
    // every seed.
    if (block_.empty()) {
      for (const char* algorithm : {"ApproxF1", "ApproxF2"}) {
        for (int32_t k = kSelectMinK; k <= kSelectMaxK; ++k) {
          block_.push_back(
              MakeSelect(algorithm, k, spec_.warm_indexes.front()));
        }
      }
      for (size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.NextBounded(i + 1)]);
      }
    }
    Request request = std::move(block_.back());
    block_.pop_back();
    return request;
  }
  const double u = rng_.NextDouble();
  const size_t key = std::min<size_t>(
      std::lower_bound(key_cdf_.begin(), key_cdf_.end(), u) -
          key_cdf_.begin(),
      spec_.churn_keys.size() - 1);
  const IndexParams& params = spec_.churn_keys[key];
  return rng_.NextBernoulli(kChurnStatsShare) ? MakeStats(&params)
                                              : MakeCover(params);
}

std::vector<Request> ProbeRequests(NodeId num_nodes) {
  std::vector<NodeId> seeds;
  for (int32_t i = 0; i < kEvaluateSeeds; ++i) {
    seeds.push_back(static_cast<NodeId>(i * (num_nodes / kEvaluateSeeds)));
  }
  const IndexParams churn_key{kChurnSamples, kChurnFirstSeed};
  return {MakeSelect("ApproxF2", kSelectMinK, kSelectKey),
          MakeEvaluate(std::move(seeds)), MakeKnn(0), MakeCover(churn_key),
          MakeStats(&churn_key)};
}

std::vector<Arrival> OpenSchedule(const WorkloadSpec& spec,
                                  NodeId num_nodes, uint64_t seed,
                                  double seconds) {
  rwdom::Rng rng(rwdom::MixSeeds(seed, 2));
  // A Poisson process conditioned on its count: exactly rate * seconds
  // arrivals at sorted uniform times, so the offered load (and the heavy
  // count) does not vary with the seed.
  const auto count = static_cast<int64_t>(
      std::llround(spec.arrivals_per_second * seconds));
  std::vector<double> due(static_cast<size_t>(count));
  for (double& t : due) t = rng.NextDouble() * seconds;
  std::sort(due.begin(), due.end());
  std::vector<Arrival> schedule;
  std::set<std::vector<NodeId>> used_seed_sets;
  for (int64_t i = 0; i < count; ++i) {
    Arrival arrival;
    arrival.due_seconds = due[static_cast<size_t>(i)];
    arrival.connection =
        static_cast<int>(rng.NextBounded(static_cast<uint64_t>(
            spec.connections)));
    // Every kHeavyBlock-th arrival is heavy, so heavies arrive about
    // kHeavyBlock / rate (200 ms) apart with Erlang gaps and rarely queue
    // behind each other, even when host drift stretches a heavy from 55
    // to 80 ms: a heavy's latency is its own cost, and a light one's tail
    // is the wait behind one heavy on its shard.
    if (i % kHeavyBlock == kHeavyBlock - 1) {
      // A fresh seed set every time, so no result memo can answer it.
      std::vector<NodeId> seeds;
      do {
        std::set<NodeId> picked;
        while (static_cast<int32_t>(picked.size()) < kEvaluateSeeds) {
          picked.insert(static_cast<NodeId>(
              rng.NextBounded(static_cast<uint64_t>(num_nodes))));
        }
        seeds.assign(picked.begin(), picked.end());
      } while (!used_seed_sets.insert(seeds).second);
      arrival.request = MakeEvaluate(std::move(seeds));
    } else if (rng.NextBernoulli(kLightStatsShare)) {
      arrival.request = MakeStats(nullptr);
    } else {
      arrival.request = MakeKnn(static_cast<NodeId>(
          rng.NextBounded(static_cast<uint64_t>(num_nodes))));
    }
    schedule.push_back(std::move(arrival));
  }
  return schedule;
}

}  // namespace perfbench
