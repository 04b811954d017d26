// The host's speed over a run, read from a fixed reference task.
//
// On a shared host the speed of a vCPU drifts by tens of percent over
// minutes (other tenants, frequency), without any CPU steal, and every
// timing of a run moves with it. A sampler thread times the same
// dependent pointer chase through a 256 KiB random cycle (L2-resident on
// this benchmark's hosts) every kIntervalMs, in its own thread CPU time,
// so waiting for a vCPU does not count and the program cannot slow the
// reference by running more threads. The chase is memory-latency bound
// like the walks the program serves; over back-to-back runs its median
// moved with their latencies to within a few percent while both drifted
// by 25%.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class HostSpeedProbe {
 public:
  static constexpr int kIntervalMs = 200;
  /// The chase time that defines the reference speed: timings are
  /// reported as they would read on a host where the chase takes this.
  static constexpr double kReferenceChaseMs = 3.5;

  HostSpeedProbe();
  /// Stops and joins the sampler thread.
  ~HostSpeedProbe();

  /// Stops sampling (idempotent); readings stay available.
  void Stop();
  /// Median chase time in ms over the readings so far (at least one).
  double MedianChaseMs();
  int NumReadings();

 private:
  void Loop();

  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> chase_ms_;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
