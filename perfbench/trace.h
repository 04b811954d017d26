// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into each rwdom layer: the load generator's request span, the
// server's injected LineExecutor (wrapped, see perfbench.cc), and the
// layer probes' replay of each request through the layers' public
// functions (probe.h). Spans of one request share its id; every span
// names the span that caused it (0 = a root span). Nothing is written
// while the benchmark measures: spans stay in memory and are written as
// JSONL when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/wire.h"
#include "util/status.h"

namespace perfbench {

/// Microseconds on the monotonic clock since a process-wide origin, so
/// client-side and server-side stamps share one timeline.
double NowUs();

struct Span {
  int64_t request_id = 0;
  std::string name;    ///< "<layer>.<what>", e.g. "server.exec".
  std::string parent;  ///< Name of the causing span; empty for a root.
  double start_us = 0.0;
  double end_us = 0.0;
};

/// The content key of a request as the server sees it (command, graph
/// and flags in order): what lets the executor wrapper, which receives
/// only the parsed envelope, recover the id the load generator gave it.
std::string RequestKey(const rwdom::ParsedRequest& request);

class Tracer {
 public:
  /// The load generator announces `id` under `key` before sending it.
  void Expect(const std::string& key, int64_t id);
  /// The executor wrapper claims the oldest announced id for `key`
  /// (requests with equal keys are interchangeable); -1 if none.
  int64_t Claim(const std::string& key);

  void Record(Span span);

  std::vector<Span> spans() const;

  /// Writes one JSON object per span.
  rwdom::Status WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::deque<int64_t>> expected_;  ///< Guarded.
  std::vector<Span> spans_;                              ///< Guarded.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
