// Serial replay of a run's requests on a fresh QueryContext: the
// correctness reference and the per-layer probes.
//
// Each distinct request line is executed once through
// ExecuteRequestToJsonLine — the executor `rwdom serve` injects — and
// its response (with the wall-clock "seconds" field normalized) becomes
// the reference every served response of that line must equal byte for
// byte. The same call's wall time is the request's solo executor time.
//
// With `decompose`, up to 16 requests of each kind are then executed
// again by calling the layers' public functions directly, each call
// timed: the wire parser (ParseRequestLine), the artifact cache
// (GetIndex hit and miss), core (Selector::Select, MinSeedCover), eval
// (SampledMetrics), walk (ExactHittingTimeKnn) and render. Executor and
// decomposition alternate for three rounds and each keeps its fastest,
// so a burst of host noise inflates neither. The decomposed response
// must render to the same bytes as the executor's, or the attribution
// is counted as a mismatch. What the timed calls leave of the solo
// executor time is the residual: flag parsing, dispatch and glue.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "util/status.h"
#include "workloads.h"

namespace perfbench {

/// Per-call samples from the decomposed replay.
struct LayerSamples {
  /// One entry per decomposed request, in the order of parse_us,
  /// render_us, residual_us and solo_exec_us.
  std::vector<RequestKind> kinds;
  std::vector<double> parse_us;
  std::vector<double> render_us;
  std::vector<double> residual_us;
  std::vector<double> solo_exec_us;
  /// Slowest minus fastest executor round of each decomposed request:
  /// the noise floor under which a residual means nothing.
  std::vector<double> exec_spread_us;
  std::vector<double> knn_exact_us;
  std::vector<double> metrics_us;
  std::vector<double> metrics_walk_steps;  ///< n * R * (L + 1) per call.
  std::vector<double> select_us;
  std::vector<double> gain_evals;
  std::vector<double> cover_us;
  std::vector<double> index_lookup_us;
  std::vector<double> index_build_us;
  int64_t mismatches = 0;  ///< Decomposed render != executor response.
};

struct Replay {
  /// Line -> normalized reference response ("<error: ...>" on failure).
  std::map<std::string, std::string> expected;
  /// Line -> solo executor wall time (index already cached when the
  /// replay decomposes; the fastest round when it was decomposed).
  std::map<std::string, double> solo_exec_us;
  LayerSamples layers;
  rwdom::Status status;
};

/// Replaces the value of every "seconds" member with a fixed token.
std::string NormalizeSeconds(const std::string& response);

/// Replays `distinct` (first-appearance order) on a fresh context over
/// the edge list at `graph_path`, after building the workload's warm
/// indexes. With a tracer, decomposed calls are recorded as spans whose
/// request id is `first_id` + the request's position in `distinct`.
Replay ReplayRequests(const std::string& graph_path,
                      const WorkloadSpec& spec,
                      const std::vector<const Request*>& distinct,
                      bool decompose, Tracer* tracer, int64_t first_id);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
