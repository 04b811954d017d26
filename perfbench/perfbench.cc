// perfbench: the serving benchmark.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--work_dir=DIR] [--corrupt_reference=1]
//
// Drives an in-process QueryServer configured as `rwdom serve
// --threads=2` configures it: 2 epoll shards sharing a 2-thread compute
// pool (1 pool worker plus the calling shard), executor
// ExecuteRequestToJsonLine. Inputs are generated from --seed before
// anything is timed: a `plc` edge list in --work_dir and the workload's
// request stream (workloads.h). Then:
//
//   1. setup, repeated kSetupReps times (median = setup_s): load the
//      edge list, construct the QueryContext, build the warm indexes,
//      start the server. The last instance serves.
//   2. the measured window of --seconds (loadgen.h). Through steps 1
//      and 2 a sampler thread times a reference task (host_speed.h);
//      the window's timings are reported at its reference speed.
//   3. --trace=1 only: a fresh setup whose executor is wrapped to record
//      server spans, and a second, traced window of the same length.
//   4. the correctness gate: every response is compared byte for byte
//      (modulo "seconds") with a serial replay on a fresh context
//      (probe.h). --trace=1 also replays each request layer by layer.
//
// Output: a human-readable block (machine, inputs, every metric with
// unit and sample count), then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end
// metrics with --trace=0, the per-layer metrics with --trace=1.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cli/query_line.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "host_speed.h"
#include "loadgen.h"
#include "probe.h"
#include "server/server.h"
#include "service/graph_registry.h"
#include "service/query_context.h"
#include "trace.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/strings.h"
#include "wgraph/substrate.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rwdom::GraphRegistry;
using rwdom::QueryContext;
using rwdom::QueryServer;
using rwdom::Status;
using rwdom::StrFormat;

constexpr int kServeThreads = 2;  ///< `rwdom serve --threads=2`.
constexpr int kSetupReps = 21;
/// Closed loops: the traced run reads the cache counters after exactly
/// this many responses, so they repeat exactly for a given seed.
constexpr int64_t kCounterRequests = 100;
/// Host steal: requests that overlap a slot with more than kStealBurst
/// steal are left out of latency and throughput, unless that would leave
/// fewer than kMinCountedShare of them; then the threshold rises to keep
/// the quietest kMinCountedShare.
constexpr double kStealBurst = 0.02;
constexpr double kMinCountedShare = 0.5;
/// A run whose sender ran later than this at p99 is reported invalid.
constexpr double kLateLimitMs = 10.0;

// ---------------------------------------------------------------------
// Small helpers.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args->trace = value == "1";
    } else if (arg == "--work_dir") {
      args->work_dir = value;
    } else if (arg == "--corrupt_reference") {
      args->corrupt_reference = value == "1";
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work_dir DIR] [--corrupt_reference 1]\n");
    return false;
  }
  return true;
}

/// Nearest-rank percentile plus how many samples lie beyond it.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
};

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile p;
  p.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const auto rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(p.samples))), 1,
      p.samples);
  p.value = values[rank - 1];
  p.beyond = p.samples - rank;
  return p;
}

double Median(const std::vector<double>& values) {
  return PercentileOf(values, 0.5).value;
}

/// Median of per-request values in which each request stands for an
/// equal part of its kind's share of `traffic`: the decomposed replay
/// holds up to 16 requests of each kind whatever the mix, and a plain
/// median over them would sit on the boundary between two kinds.
double TrafficWeightedMedian(const std::vector<double>& values,
                             const std::vector<RequestKind>& kinds,
                             const std::vector<Sample>& traffic) {
  std::map<RequestKind, double> served, decomposed;
  for (const Sample& sample : traffic) served[sample.request.kind] += 1.0;
  for (RequestKind kind : kinds) decomposed[kind] += 1.0;
  std::vector<std::pair<double, double>> weighted;
  double total = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double weight = served[kinds[i]] / decomposed[kinds[i]];
    weighted.emplace_back(values[i], weight);
    total += weight;
  }
  std::sort(weighted.begin(), weighted.end());
  double below = 0.0;
  for (const auto& [value, weight] : weighted) {
    below += weight;
    if (below >= total / 2.0) return value;
  }
  return 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Metrics in print order, each with its unit and sample count.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples, const std::string& note = "") {
    rows_.push_back({name, value, unit, samples, note});
  }
  void AddPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit, const std::string& note) {
    std::string full = note;
    if (p.beyond < 10) full += " [fewer than 10 samples beyond]";
    Add(name, p.value, unit, p.samples,
        StrFormat("%s; %lld beyond", full.c_str(),
                  static_cast<long long>(p.beyond)));
  }
  /// A timing reported at the reference host speed: `raw * scale`, with
  /// the raw reading kept in the note.
  void AddScaled(const std::string& name, double raw, double scale,
                 const std::string& unit, int64_t samples,
                 const std::string& note) {
    Add(name, raw * scale, unit, samples,
        StrFormat("%s; raw %.4f %s", note.c_str(), raw, unit.c_str()));
  }
  void AddScaledPercentile(const std::string& name, const Percentile& p,
                           double scale, const std::string& unit,
                           const std::string& note) {
    Percentile scaled = p;
    scaled.value *= scale;
    AddPercentile(name, scaled, unit,
                  StrFormat("%s; raw %.4f %s", note.c_str(), p.value,
                            unit.c_str()));
  }
  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Row& row : rows_) {
      std::printf("  %-28s %14.4f %-6s n=%-7lld %s\n", row.name.c_str(),
                  row.value, row.unit.c_str(),
                  static_cast<long long>(row.samples), row.note.c_str());
    }
  }
  void AppendJson(rwdom::JsonWriter& json) const {
    json.BeginObject();
    for (const Row& row : rows_) {
      json.Key(row.name).BeginObject();
      json.Key("value").Number(row.value);
      json.Key("unit").String(row.unit);
      json.EndObject();
    }
    json.EndObject();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
    std::string note;
  };
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------------
// Setup: load, context, warm artifacts, server.

struct SetupTimes {
  double load_ms = 0.0;
  double context_ms = 0.0;
  double warm_ms = 0.0;
  double total_s = 0.0;
};

struct Served {
  std::unique_ptr<GraphRegistry> registry;
  std::unique_ptr<QueryServer> server;
  SetupTimes times;
  QueryContext* context() const { return registry->default_context(); }
};

rwdom::Result<Served> Setup(const std::string& graph_path,
                            const WorkloadSpec& spec,
                            int64_t max_cache_bytes,
                            QueryServer::LineExecutor executor) {
  Served served;
  const double t0 = NowUs();
  RWDOM_ASSIGN_OR_RETURN(rwdom::LoadedSubstrate loaded,
                         rwdom::LoadSubstrate(graph_path));
  const double t1 = NowUs();
  served.registry = std::make_unique<GraphRegistry>();
  served.registry->set_max_cache_bytes(max_cache_bytes);
  RWDOM_RETURN_IF_ERROR(served.registry->Add(
      rwdom::kDefaultGraphName,
      std::make_unique<QueryContext>(std::move(loaded))));
  const double t2 = NowUs();
  QueryContext& context = *served.context();
  for (const IndexParams& warm : spec.warm_indexes) {
    RWDOM_RETURN_IF_ERROR(
        context.GetIndex(context.MakeKey(kWalkLength, warm.samples, warm.seed))
            .status());
  }
  if (spec.warm_stats) context.Stats();
  const double t3 = NowUs();
  rwdom::ServerOptions options;
  options.port = 0;
  options.threads = kServeThreads;
  options.io = rwdom::IoMode::kEpoll;
  served.server = std::make_unique<QueryServer>(
      served.registry.get(), std::move(executor), options);
  RWDOM_RETURN_IF_ERROR(served.server->Start());
  const double t4 = NowUs();
  served.times = {(t1 - t0) / 1e3, (t2 - t1) / 1e3, (t3 - t2) / 1e3,
                  (t4 - t0) / 1e6};
  return served;
}

/// The index-churn budget: room for `indexes` indexes of this graph.
/// Admission reserves an index's pessimistic estimate before building,
/// so the budget is (indexes - 1) real indexes + one estimate + slack.
rwdom::Result<int64_t> CacheBudgetBytes(const std::string& graph_path,
                                        const WorkloadSpec& spec) {
  if (spec.cache_indexes <= 0) return int64_t{0};
  RWDOM_ASSIGN_OR_RETURN(rwdom::LoadedSubstrate loaded,
                         rwdom::LoadSubstrate(graph_path));
  QueryContext scratch(std::move(loaded));
  const IndexParams& first = spec.churn_keys.front();
  const rwdom::ArtifactKey key =
      scratch.MakeKey(kWalkLength, first.samples, first.seed);
  RWDOM_ASSIGN_OR_RETURN(auto index, scratch.GetIndex(key));
  const int64_t actual = index->MemoryUsageBytes();
  return (spec.cache_indexes - 1) * actual + scratch.EstimatedIndexBytes(key) +
         actual / 2;
}

// ---------------------------------------------------------------------
// One measured window.

struct CacheCounters {
  int64_t builds = 0;
  int64_t hits = 0;
  int64_t evictions = 0;
  int64_t bytes = 0;
  int64_t requests = 0;  ///< Requests the counters cover.
};

CacheCounters ReadCounters(const QueryContext& context) {
  return {context.index_builds(), context.index_hits(),
          context.index_evictions(), context.CachedIndexBytes(), 0};
}

struct Window {
  LoadRun run;
  /// Answered and below the steal threshold: the requests the latency
  /// and throughput figures use.
  std::vector<bool> counted;
  int64_t num_counted = 0;
  double steal_threshold = 0.0;
  std::vector<bool> missed;  ///< Closed loops: request built an index.
  CacheCounters counters;    ///< Delta over the counted requests.
  double seconds = 0.0;
};

void CountQuietRequests(Window* window) {
  const auto& samples = window->run.samples;
  std::vector<double> levels(samples.size(), 0.0);
  std::vector<double> answered;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!samples[i].answered) continue;
    levels[i] =
        window->run.steal.Level(samples[i].due_us, samples[i].recv_us);
    answered.push_back(levels[i]);
  }
  window->steal_threshold = std::max(
      kStealBurst, PercentileOf(answered, kMinCountedShare).value);
  window->counted.assign(samples.size(), false);
  for (size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].answered && levels[i] <= window->steal_threshold) {
      window->counted[i] = true;
      ++window->num_counted;
    }
  }
}

Window RunWindow(const WorkloadSpec& spec, const Served& served,
                 const std::vector<Arrival>& schedule, uint64_t seed,
                 double seconds, Tracer* tracer) {
  Window window;
  window.seconds = seconds;
  QueryContext& context = *served.context();
  const CacheCounters before = ReadCounters(context);
  auto delta = [&] {
    CacheCounters now = ReadCounters(context);
    now.builds -= before.builds;
    now.hits -= before.hits;
    now.evictions -= before.evictions;
    return now;
  };
  if (spec.open_loop) {
    window.run = RunOpenLoop(served.server->port(), schedule,
                             spec.connections, tracer);
    window.counters = delta();
    window.counters.requests =
        static_cast<int64_t>(window.run.samples.size());
    CountQuietRequests(&window);
    return window;
  }
  ClosedStream stream(spec, context.substrate().num_nodes(), seed);
  int64_t builds = context.index_builds();
  window.run = RunClosedLoop(
      served.server->port(), stream, seconds,
      tracer != nullptr ? kCounterRequests : 1, tracer,
      [&](int64_t answered) {
        const int64_t now = context.index_builds();
        window.missed.push_back(now > builds);
        builds = now;
        if (answered == kCounterRequests) {
          window.counters = delta();
          window.counters.requests = answered;
        }
      });
  CountQuietRequests(&window);
  return window;
}

/// Latency of every counted sample, in ms, split by a class predicate.
std::vector<double> LatenciesMs(const Window& window,
                                const std::function<bool(size_t)>& keep) {
  std::vector<double> out;
  for (size_t i = 0; i < window.run.samples.size(); ++i) {
    const Sample& sample = window.run.samples[i];
    if (window.counted[i] && keep(i)) {
      out.push_back((sample.recv_us - sample.due_us) / 1e3);
    }
  }
  return out;
}

/// Closed loop: counted responses over the time their request cycles
/// took (due to next due). Open loop: every response over the time from
/// the window's start to the last response, which stays at the offered
/// rate unless a backlog grows.
double ThroughputQps(const Window& window, bool open_loop) {
  const auto& samples = window.run.samples;
  if (open_loop) {
    int64_t answered = 0;
    for (const Sample& sample : samples) answered += sample.answered;
    const double span_us = window.run.end_us - window.run.start_us;
    return span_us > 0.0 ? answered / (span_us / 1e6) : 0.0;
  }
  int64_t counted = 0;
  double cycle_us = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!window.counted[i]) continue;
    ++counted;
    cycle_us += (i + 1 < samples.size() ? samples[i + 1].due_us
                                        : samples[i].recv_us) -
                samples[i].due_us;
  }
  return cycle_us > 0.0 ? counted / (cycle_us / 1e6) : 0.0;
}

/// The workload's primary class (latency_*) and heavy class (heavy_*).
struct Classes {
  std::function<bool(size_t)> primary;
  std::function<bool(size_t)> heavy;
  double tail_quantile = 0.9;
  std::string primary_name;
  std::string heavy_name;
  /// The names the workload's own description gives latency_p50_ms and
  /// latency_tail_ms.
  std::string p50_alias = "latency_p50_ms";
  std::string tail_alias = "latency_p90_ms";
};

Classes ClassesOf(const WorkloadSpec& spec, const Window& window) {
  const auto& samples = window.run.samples;
  Classes classes;
  if (spec.name == "mixed-open") {
    classes.primary = [&samples](size_t i) {
      return !samples[i].request.heavy;
    };
    classes.heavy = [&samples](size_t i) { return samples[i].request.heavy; };
    classes.tail_quantile = 0.99;
    classes.p50_alias = "light_p50_ms";
    classes.tail_alias = "light_p99_ms";
    classes.primary_name = "light class (knn, stats)";
    classes.heavy_name = "heavy class (evaluate R=500)";
  } else if (spec.name == "index-churn") {
    classes.primary = [](size_t) { return true; };
    classes.heavy = [&window](size_t i) {
      return i < window.missed.size() && window.missed[i];
    };
    classes.primary_name = "every request";
    classes.heavy_name = "requests that built an index";
  } else {
    classes.primary = [](size_t) { return true; };
    classes.heavy = [](size_t) { return true; };
    classes.primary_name = "every select";
    classes.heavy_name = "every select";
  }
  return classes;
}

// ---------------------------------------------------------------------
// Correctness gate.

struct Verdict {
  int64_t attempted = 0;
  int64_t failed = 0;
};

Verdict Check(const Window& window, const Replay& replay) {
  Verdict verdict;
  for (const Sample& sample : window.run.samples) {
    ++verdict.attempted;
    auto it = replay.expected.find(sample.request.line);
    const bool ok = sample.answered && it != replay.expected.end() &&
                    it->second.rfind("<error", 0) != 0 &&
                    NormalizeSeconds(sample.response) == it->second;
    if (!ok) ++verdict.failed;
  }
  return verdict;
}

// ---------------------------------------------------------------------
// Tracing: the executor wrapper and the server-side span analysis.

QueryServer::LineExecutor TracedExecutor(Tracer* tracer) {
  return [tracer](const rwdom::ParsedRequest& request, QueryContext& context,
                  std::string* response) {
    const int64_t id = tracer->Claim(RequestKey(request));
    const double start = NowUs();
    Status status = rwdom::ExecuteRequestToJsonLine(request, context, response);
    tracer->Record({id, "server.exec", "client.request", start, NowUs()});
    return status;
  };
}

struct ServerSpans {
  std::vector<double> wait_ms, exec_ms, send_ms, contention_ms;
};

ServerSpans AnalyzeServerSpans(Tracer& tracer, const Window& window,
                               const Replay& replay,
                               const std::function<bool(size_t)>& contended) {
  std::map<int64_t, Span> exec;
  for (const Span& span : tracer.spans()) {
    if (span.name == "server.exec" && span.request_id >= 0) {
      exec[span.request_id] = span;
    }
  }
  ServerSpans out;
  for (size_t i = 0; i < window.run.samples.size(); ++i) {
    const Sample& sample = window.run.samples[i];
    auto it = exec.find(static_cast<int64_t>(i));
    if (!window.counted[i] || it == exec.end()) continue;
    const Span& span = it->second;
    const auto id = static_cast<int64_t>(i);
    tracer.Record({id, "client.request", "", sample.due_us, sample.recv_us});
    tracer.Record({id, "server.wait", "client.request", sample.due_us,
                   span.start_us});
    tracer.Record({id, "server.send", "client.request", span.end_us,
                   sample.recv_us});
    out.wait_ms.push_back((span.start_us - sample.due_us) / 1e3);
    out.exec_ms.push_back((span.end_us - span.start_us) / 1e3);
    out.send_ms.push_back((sample.recv_us - span.end_us) / 1e3);
    auto solo = replay.solo_exec_us.find(sample.request.line);
    if (contended(i) && solo != replay.solo_exec_us.end()) {
      out.contention_ms.push_back(
          (span.end_us - span.start_us - solo->second) / 1e3);
    }
  }
  return out;
}

double LatenessP99Ms(const Window& window) {
  std::vector<double> late;
  for (const Sample& sample : window.run.samples) {
    late.push_back((sample.sent_us - sample.due_us) / 1e3);
  }
  return PercentileOf(late, 0.99).value;
}

std::vector<const Request*> DistinctRequests(
    const std::vector<const Window*>& windows) {
  std::vector<const Request*> distinct;
  std::set<std::string> seen;
  for (const Window* window : windows) {
    for (const Sample& sample : window->run.samples) {
      if (seen.insert(sample.request.line).second) {
        distinct.push_back(&sample.request);
      }
    }
  }
  return distinct;
}

// ---------------------------------------------------------------------

void PrintMachine(const Args& args, const WorkloadSpec& spec,
                  rwdom::NodeId nodes, int64_t max_cache_bytes) {
  std::printf("machine: nproc=%ld compiler=\"g++ %s\" build=%s simd=%s "
              "serve_threads=%d io=epoll\n",
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE,
              rwdom::SimdLevelName(rwdom::ActiveSimdLevel()), kServeThreads);
  std::printf("graph: plc n=%d m=%lld communities=%d mixing=%.2f seed=%llu\n",
              nodes, static_cast<long long>(kGraphEdges), kGraphCommunities,
              kGraphMixing, static_cast<unsigned long long>(args.seed));
  std::printf("workload: %s %s connections=%d", spec.name.c_str(),
              spec.open_loop ? "open-loop" : "closed-loop", spec.connections);
  if (spec.open_loop) {
    std::printf(" arrivals=%.0f/s (Poisson)", spec.arrivals_per_second);
  }
  if (max_cache_bytes > 0) {
    std::printf(" max_cache_bytes=%lld (%d indexes)",
                static_cast<long long>(max_cache_bytes), spec.cache_indexes);
  }
  std::printf(" seconds=%.1f trace=%d\n", args.seconds, args.trace ? 1 : 0);
}

int Run(const Args& args) {
  auto spec_or = FindWorkload(args.workload);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec spec = *spec_or;
  rwdom::SetNumThreads(kServeThreads);

  // Inputs, generated from the seed before anything is timed.
  ::mkdir(args.work_dir.c_str(), 0755);
  const std::string graph_path =
      StrFormat("%s/plc-seed%llu.txt", args.work_dir.c_str(),
                static_cast<unsigned long long>(args.seed));
  {
    auto graph = rwdom::GeneratePowerLawCommunity(
        kGraphNodes, kGraphEdges, kGraphCommunities, kGraphMixing, args.seed);
    Status saved = graph.ok() ? rwdom::SaveEdgeList(*graph, graph_path)
                              : graph.status();
    if (!saved.ok()) {
      std::fprintf(stderr, "input: %s\n", saved.ToString().c_str());
      return 1;
    }
  }
  auto budget = CacheBudgetBytes(graph_path, spec);
  if (!budget.ok()) {
    std::fprintf(stderr, "cache budget: %s\n",
                 budget.status().ToString().c_str());
    return 1;
  }
  const std::vector<Arrival> schedule =
      spec.open_loop
          ? OpenSchedule(spec, kGraphNodes, args.seed, args.seconds)
          : std::vector<Arrival>{};
  PrintMachine(args, spec, kGraphNodes, *budget);

  // 1-2. Setup (repeated) and the measured window, with the host's speed
  // sampled throughout.
  HostSpeedProbe host_speed;
  std::vector<double> setup_s, load_ms, context_ms, warm_ms;
  std::optional<Served> served;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served.reset();
    auto setup = Setup(graph_path, spec, *budget,
                       rwdom::ExecuteRequestToJsonLine);
    if (!setup.ok()) {
      std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
      return 1;
    }
    served.emplace(std::move(*setup));
    setup_s.push_back(served->times.total_s);
    load_ms.push_back(served->times.load_ms);
    context_ms.push_back(served->times.context_ms);
    warm_ms.push_back(served->times.warm_ms);
  }
  if (served->context()->substrate().num_nodes() != kGraphNodes) {
    std::fprintf(stderr, "loaded graph has %d nodes, generated %d\n",
                 served->context()->substrate().num_nodes(), kGraphNodes);
    return 1;
  }
  const Window plain =
      RunWindow(spec, *served, schedule, args.seed, args.seconds, nullptr);
  const double rss_mb = PeakRssMb();
  host_speed.Stop();
  served->server->Shutdown();
  served.reset();
  // A transport failure ends the window early; the requests it left
  // unanswered count as failed.
  if (!plain.run.status.ok()) {
    std::printf("load: %s\n", plain.run.status.ToString().c_str());
  }

  // 3. The traced window.
  Tracer tracer;
  Window traced;
  if (args.trace) {
    auto setup = Setup(graph_path, spec, *budget, TracedExecutor(&tracer));
    if (!setup.ok()) {
      std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
      return 1;
    }
    traced = RunWindow(spec, *setup, schedule, args.seed, args.seconds,
                       &tracer);
    setup->server->Shutdown();
    if (!traced.run.status.ok()) {
      std::printf("traced load: %s\n", traced.run.status.ToString().c_str());
    }
  }

  // 4. The correctness gate (and, traced, the layer-by-layer replay).
  std::vector<const Window*> windows = {&plain};
  if (args.trace) windows.push_back(&traced);
  const std::vector<const Request*> distinct = DistinctRequests(windows);
  const int64_t replay_ids = 1'000'000'000;
  Replay replay = ReplayRequests(graph_path, spec, distinct, args.trace,
                                 args.trace ? &tracer : nullptr, replay_ids);
  if (!replay.status.ok()) {
    std::fprintf(stderr, "replay: %s\n", replay.status.ToString().c_str());
    return 1;
  }
  if (args.corrupt_reference && !distinct.empty()) {
    std::string& reference = replay.expected[distinct.front()->line];
    reference.back() ^= 1;  // The gate must now fail that line.
  }
  Verdict verdict = Check(plain, replay);
  const Verdict plain_verdict = verdict;
  if (args.trace) {
    const Verdict more = Check(traced, replay);
    verdict.attempted += more.attempted;
    verdict.failed += more.failed;
  }
  const double late_p99_ms = LatenessP99Ms(plain);
  std::printf("loadgen: p99 lateness %.3f ms (limit %.1f ms)%s\n",
              late_p99_ms, kLateLimitMs,
              late_p99_ms <= kLateLimitMs ? "" : " -- INVALID RUN");
  std::printf("correctness: %lld of %lld responses match the serial replay "
              "(%zu distinct requests)%s\n",
              static_cast<long long>(verdict.attempted - verdict.failed),
              static_cast<long long>(verdict.attempted), distinct.size(),
              args.corrupt_reference ? " [reference deliberately corrupted]"
                                     : "");

  // End-to-end metrics (the untraced window). The window's timings are
  // reported at the reference host speed (host_speed.h): a time scales
  // by to_reference, a closed loop's rate by its inverse. An open loop's
  // rate is the offered one, and setup_s, a second of page faults and
  // allocation at the start of the run, follows the chase too loosely
  // to gain from scaling; both stay as read.
  const double chase_ms = host_speed.MedianChaseMs();
  const double to_reference = HostSpeedProbe::kReferenceChaseMs / chase_ms;
  const Classes classes = ClassesOf(spec, plain);
  MetricSet e2e;
  e2e.Add("setup_s", Median(setup_s), "s", kSetupReps,
          "median of setups: load + context + warm artifacts + server start");
  e2e.Add("success_rate",
          plain_verdict.attempted == 0
              ? 0.0
              : static_cast<double>(plain_verdict.attempted -
                                    plain_verdict.failed) /
                    static_cast<double>(plain_verdict.attempted),
          "ratio", plain_verdict.attempted,
          "responses equal to the serial replay / attempted");
  e2e.Add("rss_mb", rss_mb, "MB", 1, "peak RSS after the window");
  if (spec.open_loop) {
    e2e.Add("throughput_qps", ThroughputQps(plain, true), "1/s",
            static_cast<int64_t>(plain.run.samples.size()),
            "served rate (the offered rate unless a backlog grows)");
  } else {
    e2e.AddScaled("throughput_qps", ThroughputQps(plain, false),
                  1.0 / to_reference, "1/s", plain.num_counted,
                  "closed loop, 1 connection");
  }
  const std::vector<double> primary = LatenciesMs(plain, classes.primary);
  const std::vector<double> heavy = LatenciesMs(plain, classes.heavy);
  e2e.AddScaledPercentile(
      "latency_p50_ms", PercentileOf(primary, 0.5), to_reference, "ms",
      StrFormat("%s: p50, %s", classes.p50_alias.c_str(),
                classes.primary_name.c_str()));
  e2e.AddScaledPercentile(
      "latency_tail_ms", PercentileOf(primary, classes.tail_quantile),
      to_reference, "ms",
      StrFormat("%s: p%.0f, %s", classes.tail_alias.c_str(),
                classes.tail_quantile * 100, classes.primary_name.c_str()));
  e2e.AddScaledPercentile("heavy_p50_ms", PercentileOf(heavy, 0.5),
                          to_reference, "ms", classes.heavy_name);
  e2e.AddScaledPercentile("heavy_p90_ms", PercentileOf(heavy, 0.9),
                          to_reference, "ms", classes.heavy_name);
  std::printf("host: reference chase median %.3f ms over %d readings "
              "(reference speed: %.1f ms); the window's timings below are "
              "scaled by %.4f to the reference speed\n",
              chase_ms, host_speed.NumReadings(),
              HostSpeedProbe::kReferenceChaseMs, to_reference);
  std::printf("host: steal %.1f%% of CPU time over the window; %lld of "
              "%zu requests ran below the %.1f%% steal threshold and are "
              "the ones latency and throughput count\n",
              100.0 * plain.run.steal.Share(),
              static_cast<long long>(plain.num_counted),
              plain.run.samples.size(), 100.0 * plain.steal_threshold);
  std::printf("classes: primary %zu, heavy %zu counted requests\n",
              primary.size(), heavy.size());
  e2e.Print("end-to-end (untraced window):");

  MetricSet layers;
  if (args.trace) {
    // Layers the workload never calls are timed on one probe request of
    // each kind, replayed the same way.
    const std::vector<Request> probes = ProbeRequests(kGraphNodes);
    std::vector<const Request*> probe_ptrs;
    for (const Request& probe : probes) probe_ptrs.push_back(&probe);
    const Replay probe_replay = ReplayRequests(
        graph_path, *FindWorkload("select-warm"), probe_ptrs, true, &tracer,
        2 * replay_ids);
    const LayerSamples& own = replay.layers;
    const LayerSamples& probe = probe_replay.layers;
    auto pick = [&](const std::vector<double> LayerSamples::*field,
                    std::string* source) -> const std::vector<double>& {
      const bool from_own = !(own.*field).empty();
      *source = from_own ? "workload requests" : "probe requests";
      return from_own ? own.*field : probe.*field;
    };
    auto add_median = [&](const std::string& name,
                          const std::vector<double> LayerSamples::*field,
                          double scale, const std::string& unit,
                          const std::string& what) {
      std::string source;
      const std::vector<double>& values = pick(field, &source);
      layers.Add(name, Median(values) * scale, unit,
                 static_cast<int64_t>(values.size()),
                 "median " + what + " (" + source + ")");
    };

    layers.Add("graph.load_ms", Median(load_ms), "ms", kSetupReps,
               "LoadSubstrate, median of setups");
    layers.Add("service.context_ms", Median(context_ms), "ms", kSetupReps,
               "QueryContext construction + registry, median of setups");
    layers.Add("index.warm_build_ms", Median(warm_ms), "ms", kSetupReps,
               spec.warm_indexes.empty()
                   ? "no warm index in this workload (stats memo only)"
                   : "warm index build, median of setups");

    // Solo replays run against a cached index, so closed loops compare
    // only the requests that found theirs cached.
    const std::function<bool(size_t)> contended =
        spec.open_loop ? ClassesOf(spec, traced).heavy
                       : [&traced](size_t i) {
                           return i >= traced.missed.size() ||
                                  !traced.missed[i];
                         };
    const ServerSpans server =
        AnalyzeServerSpans(tracer, traced, replay, contended);
    auto add_server = [&](const std::string& name,
                          const std::vector<double>& values, double q,
                          const std::string& what) {
      layers.AddPercentile(name, PercentileOf(values, q), "ms", what);
    };
    add_server("server.wait_p50_ms", server.wait_ms, 0.5,
               "due -> executor start");
    add_server("server.wait_p99_ms", server.wait_ms, 0.99,
               "due -> executor start");
    add_server("server.exec_p50_ms", server.exec_ms, 0.5,
               "executor span under load");
    add_server("server.exec_p99_ms", server.exec_ms, 0.99,
               "executor span under load");
    add_server("server.send_p50_ms", server.send_ms, 0.5,
               "executor return -> client read");
    add_server(
        "compute.contention_p50_ms", server.contention_ms, 0.5,
        "executor span under load - solo replay of the same request, " +
            (spec.open_loop ? classes.heavy_name
                            : std::string("requests that built no index")));

    // Every request parses, renders and runs through the executor, so
    // these four weigh each request kind by its share of the traffic.
    auto traffic_median = [&](const std::vector<double>& values) {
      return TrafficWeightedMedian(values, own.kinds, traced.run.samples);
    };
    auto add_traffic_median = [&](const std::string& name,
                                  const std::vector<double>& values,
                                  const std::string& what) {
      layers.Add(name, traffic_median(values), "us",
                 static_cast<int64_t>(values.size()),
                 "median " + what + " (workload requests, weighted by "
                 "their kind's share of the traffic)");
    };
    add_traffic_median("service.parse_us", own.parse_us, "ParseRequestLine");
    add_traffic_median("service.render_us", own.render_us, "Render (JSON)");
    add_traffic_median(
        "cli.residual_us", own.residual_us,
        StrFormat("solo executor time - timed layer calls; noise floor "
                  "%.1f us, the spread of the executor's own rounds",
                  traffic_median(own.exec_spread_us)));
    add_traffic_median("cli.solo_exec_us", own.solo_exec_us,
                       "solo ExecuteRequestToJsonLine");
    add_median("walk.knn_exact_us", &LayerSamples::knn_exact_us, 1.0, "us",
               "ExactHittingTimeKnn");
    add_median("eval.metrics_ms", &LayerSamples::metrics_us, 1e-3, "ms",
               "SampledMetrics");
    {
      std::string source;
      const std::vector<double>& steps =
          pick(&LayerSamples::metrics_walk_steps, &source);
      const std::vector<double>& times = pick(&LayerSamples::metrics_us,
                                              &source);
      std::vector<double> ns_per_step;
      for (size_t i = 0; i < steps.size(); ++i) {
        ns_per_step.push_back(times[i] * 1e3 / steps[i]);
      }
      layers.Add("eval.walk_steps", Median(steps), "count",
                 static_cast<int64_t>(steps.size()),
                 "computed from the inputs as n*R*(L+1), not counted (" +
                     source + ")");
      layers.Add("eval.ns_per_step", Median(ns_per_step), "ns",
                 static_cast<int64_t>(ns_per_step.size()),
                 "SampledMetrics time / computed walk steps (" + source + ")");
    }
    add_median("core.select_ms", &LayerSamples::select_us, 1e-3, "ms",
               "Selector::Select over a prebuilt index");
    add_median("core.gain_evals", &LayerSamples::gain_evals, 1.0, "count",
               "ApproxGreedy gain evaluations");
    add_median("core.cover_ms", &LayerSamples::cover_us, 1e-3, "ms",
               "MinSeedCover");
    add_median("service.index_lookup_us", &LayerSamples::index_lookup_us, 1.0,
               "us", "GetIndex hit");
    add_median("index.build_ms", &LayerSamples::index_build_us, 1e-3, "ms",
               "GetIndex miss");

    const CacheCounters& c = traced.counters;
    const std::string over = StrFormat(
        "QueryContext counter over the first %lld requests",
        static_cast<long long>(c.requests));
    layers.Add("index.builds", static_cast<double>(c.builds), "count",
               c.requests, over);
    layers.Add("service.index_hits", static_cast<double>(c.hits), "count",
               c.requests, over);
    layers.Add("service.evictions", static_cast<double>(c.evictions), "count",
               c.requests, over);
    const int64_t lookups = c.hits + c.builds;
    layers.Add("service.hit_ratio",
               lookups > 0 ? static_cast<double>(c.hits) / lookups : 0.0,
               "ratio", lookups,
               "index_hits / (index_hits + index_builds); n = the base");
    layers.Add("index.bytes", static_cast<double>(c.bytes), "bytes",
               c.requests, "cached index bytes at the counter snapshot");
    layers.Add("host.chase_ms", chase_ms, "ms", host_speed.NumReadings(),
               StrFormat("median reference chase over setup and the "
                         "untraced window; the window's timings are scaled "
                         "by %.1f / this",
                         HostSpeedProbe::kReferenceChaseMs));
    layers.Add("loadgen.late_p99_ms", late_p99_ms, "ms",
               static_cast<int64_t>(plain.run.samples.size()),
               StrFormat("send - due, untraced window; limit %.1f ms",
                         kLateLimitMs));
    double overhead = 0.0;
    if (spec.open_loop) {
      const Classes traced_classes = ClassesOf(spec, traced);
      const double base = PercentileOf(primary, 0.5).value;
      const double with = PercentileOf(
          LatenciesMs(traced, traced_classes.primary), 0.5).value;
      overhead = base > 0.0 ? 100.0 * (with / base - 1.0) : 0.0;
    } else {
      const double with = ThroughputQps(traced, false);
      overhead =
          with > 0.0 ? 100.0 * (ThroughputQps(plain, false) / with - 1.0)
                     : 0.0;
    }
    layers.Add("trace.overhead_pct", overhead, "%", 2,
               spec.open_loop ? "traced vs untraced latency_p50_ms"
                              : "untraced vs traced throughput_qps");
    layers.Print("per-layer (traced window + layer-by-layer replay):");
    std::printf("decomposition: %lld of %zu decomposed responses differ "
                "from the executor's%s\n",
                static_cast<long long>(own.mismatches + probe.mismatches),
                own.residual_us.size() + probe.residual_us.size(),
                own.mismatches + probe.mismatches == 0
                    ? ""
                    : " — per-layer attribution is stale");

    const std::string spans_path = StrFormat(
        "%s/trace-%s-seed%llu.jsonl", args.work_dir.c_str(),
        spec.name.c_str(), static_cast<unsigned long long>(args.seed));
    Status written = tracer.WriteJsonl(spans_path);
    std::printf("spans: %s (%zu spans)\n",
                written.ok() ? spans_path.c_str()
                             : written.ToString().c_str(),
                tracer.spans().size());
  }

  rwdom::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(verdict.failed == 0);
  json.Key("attempted").Int(verdict.attempted);
  json.Key("failed").Int(verdict.failed);
  json.Key("metrics");
  (args.trace ? layers : e2e).AppendJson(json);
  json.EndObject();
  std::printf("%s\n", json.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  return perfbench::Run(args);
}
