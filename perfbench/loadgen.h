// The benchmark's load generator: real TCP connections to an in-process
// QueryServer, driven from at most two threads.
//
//   RunClosedLoop  one connection, one thread: send, wait for the
//                  response, send the next. A request is due when the
//                  previous response has been read.
//   RunOpenLoop    a sender thread that sends each scheduled request at
//                  its due time over its assigned connection (never
//                  waiting for responses), and a receiver thread that
//                  reads the responses of every connection. Latency runs
//                  from the due time, so a stall also charges the
//                  requests queued behind it; how late the sender itself
//                  ran is reported separately (Sample::sent_us).
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace.h"
#include "util/status.h"
#include "workloads.h"

namespace perfbench {

/// The host's CPU steal over time: the share of this machine's CPU time
/// that the hypervisor gave to someone else while a vCPU wanted to run
/// (/proc/stat). On a shared host it comes in bursts of seconds that
/// slow every request running then, whatever the program does, so the
/// benchmark can leave requests that overlap a burst out of its latency
/// figures (and says how many).
class StealMonitor {
 public:
  /// Readings are taken at most this often.
  static constexpr double kIntervalUs = 500e3;
  /// Requests due this soon after a slot are still queued behind it.
  static constexpr double kAfterSlotUs = 250e3;

  /// Takes a reading now (the first and last reading bound the window).
  void Sample();
  /// Takes a reading when the last one is kIntervalUs old.
  void MaybeSample();

  /// The highest steal share of the slots between readings that
  /// [start_us, end_us] overlaps (a slot reaches kAfterSlotUs past its
  /// end).
  double Level(double start_us, double end_us) const;
  /// Steal share over the whole sampled time.
  double Share() const;

 private:
  struct Reading {
    double t_us = 0.0;
    int64_t steal = 0;
    int64_t total = 0;
  };
  std::vector<Reading> readings_;
};

/// One request's client-side timeline (NowUs() stamps).
struct Sample {
  Request request;
  double due_us = 0.0;
  double sent_us = 0.0;
  double recv_us = 0.0;
  bool answered = false;
  std::string response;
};

struct LoadRun {
  std::vector<Sample> samples;  ///< Index == request id.
  double start_us = 0.0;
  double end_us = 0.0;  ///< Last response read.
  StealMonitor steal;
  rwdom::Status status;
};

/// Runs until `seconds` have elapsed and at least `min_requests` were
/// answered. With a tracer, each request is announced under its
/// RequestKey before it is sent. `after_response(answered)` runs after
/// each response is read (nothing is in flight at that moment).
LoadRun RunClosedLoop(int port, ClosedStream& stream, double seconds,
                      int64_t min_requests, Tracer* tracer,
                      const std::function<void(int64_t)>& after_response);

/// Sends `schedule` (due offsets from the window start) over
/// `connections` connections and waits for every response.
LoadRun RunOpenLoop(int port, const std::vector<Arrival>& schedule,
                    int connections, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
