#include "host_speed.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>

#include "util/rng.h"

namespace perfbench {
namespace {

constexpr uint32_t kCycleEntries = 1u << 16;  // 256 KiB of uint32_t.
constexpr int kChaseSteps = 400'000;

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

/// One random cycle through every entry (Sattolo's shuffle), fixed seed.
std::vector<uint32_t> MakeCycle() {
  std::vector<uint32_t> next(kCycleEntries);
  std::iota(next.begin(), next.end(), 0u);
  rwdom::Rng rng(20240611);
  for (uint32_t i = kCycleEntries - 1; i > 0; --i) {
    std::swap(next[i], next[rng.NextBounded(i)]);
  }
  return next;
}

}  // namespace

HostSpeedProbe::HostSpeedProbe() : thread_([this] { Loop(); }) {}

HostSpeedProbe::~HostSpeedProbe() { Stop(); }

void HostSpeedProbe::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double HostSpeedProbe::MedianChaseMs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> sorted = chase_ms_;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];
}

int HostSpeedProbe::NumReadings() {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(chase_ms_.size());
}

void HostSpeedProbe::Loop() {
  const std::vector<uint32_t> next = MakeCycle();
  volatile uint32_t sink = 0;
  std::unique_lock<std::mutex> lock(mu_);
  // The first reading is taken even if Stop() comes at once, so the
  // median always exists.
  do {
    lock.unlock();
    const double start = ThreadCpuMs();
    uint32_t at = 0;
    for (int i = 0; i < kChaseSteps; ++i) at = next[at];
    const double took = ThreadCpuMs() - start;
    sink = sink + at;
    lock.lock();
    chase_ms_.push_back(took);
  } while (!wake_.wait_for(lock, std::chrono::milliseconds(kIntervalMs),
                           [this] { return stop_; }));
}

}  // namespace perfbench
