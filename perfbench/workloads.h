// The benchmark's workloads: seeded request generators over one
// generated power-law-community graph. The server only ever sees the
// generated request lines; the typed parameters ride along so the
// layer probes (probe.h) can replay each request layer by layer.
//
//   select-warm  closed loop, 1 connection: ApproxF1/ApproxF2 selects
//                over one index key prebuilt in setup, k from a small
//                range (repeating dashboard re-queries), drawn in
//                shuffled blocks that hold every (algorithm, k) once.
//   mixed-open   open loop, seeded Poisson arrivals over 4 connections:
//                every 20th arrival a heavy `evaluate` (unique seed set,
//                R=500), the rest light (exact `knn`, or `stats` without
//                an index).
//   index-churn  closed loop, 1 connection: `stats --with_index` and
//                `cover` over a skewed choice of 8 index keys, with the
//                cache budget holding only 3 indexes.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

// The graph every workload runs on: rwdom's `plc` generator.
inline constexpr rwdom::NodeId kGraphNodes = 2000;
inline constexpr int64_t kGraphEdges = 10000;
inline constexpr int32_t kGraphCommunities = 16;
inline constexpr double kGraphMixing = 0.08;

inline constexpr int32_t kWalkLength = 6;  ///< L of every request.

enum class RequestKind { kSelect, kEvaluate, kKnn, kCover, kStats };

/// One generated request: the wire line plus its typed parameters.
struct Request {
  std::string line;
  RequestKind kind = RequestKind::kStats;
  bool heavy = false;  ///< mixed-open's cost class.
  std::string algorithm;     ///< select: "ApproxF1" / "ApproxF2".
  int32_t k = 0;             ///< select, knn.
  int32_t samples = 0;       ///< Index R (select/cover/stats), metric R
                             ///< (evaluate).
  uint64_t seed = 0;         ///< Index seed, or metric seed (evaluate).
  std::vector<rwdom::NodeId> seeds;  ///< evaluate.
  rwdom::NodeId query = -1;          ///< knn.
  double alpha = 0.0;                ///< cover.
  bool with_index = false;           ///< stats.
};

/// An (L, R, seed) index key as the requests spell it.
struct IndexParams {
  int32_t samples = 0;
  uint64_t seed = 0;
};

struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  int connections = 1;
  double arrivals_per_second = 0.0;  ///< Open loop only.
  std::vector<IndexParams> warm_indexes;  ///< Built in setup.
  bool warm_stats = false;  ///< Memoize the stats summary in setup.
  /// Cache budget in indexes (0 = unlimited); setup turns it into bytes.
  int cache_indexes = 0;
  std::vector<IndexParams> churn_keys;  ///< index-churn's key set.
};

rwdom::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// A closed-loop workload's endless request stream.
class ClosedStream {
 public:
  ClosedStream(const WorkloadSpec& spec, rwdom::NodeId num_nodes,
               uint64_t seed);
  Request Next();

 private:
  const WorkloadSpec& spec_;
  rwdom::NodeId num_nodes_;
  rwdom::Rng rng_;
  std::vector<double> key_cdf_;  ///< index-churn's skewed key choice.
  std::vector<Request> block_;   ///< select-warm's rest of the block.
};

/// One scheduled open-loop request.
struct Arrival {
  double due_seconds = 0.0;  ///< Offset from the start of the window.
  int connection = 0;
  Request request;
};

/// One request of every kind at the workloads' parameters: the traced
/// run times a layer on these when its workload never calls it.
std::vector<Request> ProbeRequests(rwdom::NodeId num_nodes);

/// The open-loop schedule for a window of `seconds`.
std::vector<Arrival> OpenSchedule(const WorkloadSpec& spec,
                                  rwdom::NodeId num_nodes, uint64_t seed,
                                  double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
