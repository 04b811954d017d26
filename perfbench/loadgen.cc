#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "server/client.h"
#include "service/wire.h"
#include "util/socket.h"

namespace perfbench {
namespace {

using rwdom::Status;

/// Give up on outstanding responses this long after the last send.
constexpr double kDrainTimeoutUs = 60e6;

std::string KeyOf(const Request& request) {
  auto parsed = rwdom::ParseRequestLine(request.line);
  return parsed.ok() ? RequestKey(*parsed) : request.line;
}

/// Reads one line from a blocking socket through `decoder`.
Status ReadLine(int fd, rwdom::LineDecoder* decoder, std::string* line) {
  char buffer[4096];
  for (;;) {
    const auto event = decoder->Next(line);
    if (event == rwdom::LineDecoder::Event::kLine) return Status::OK();
    if (event == rwdom::LineDecoder::Event::kOverflow) {
      return Status::IoError("overlong line");
    }
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) return Status::IoError("connection closed");
    decoder->Append(std::string_view(buffer, static_cast<size_t>(got)));
  }
}

}  // namespace

void StealMonitor::Sample() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  Reading reading;
  reading.t_us = NowUs();
  // cpu user nice system idle iowait irq softirq steal ...
  int64_t field = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && (stat >> field); ++i) {
    reading.total += field;
    if (i == 7) reading.steal = field;
  }
  readings_.push_back(reading);
}

void StealMonitor::MaybeSample() {
  if (readings_.empty() || NowUs() - readings_.back().t_us >= kIntervalUs) {
    Sample();
  }
}

double StealMonitor::Level(double start_us, double end_us) const {
  double level = 0.0;
  for (size_t i = 1; i < readings_.size(); ++i) {
    const Reading& a = readings_[i - 1];
    const Reading& b = readings_[i];
    const int64_t total = b.total - a.total;
    if (total > 0 && start_us <= b.t_us + kAfterSlotUs && end_us >= a.t_us) {
      level = std::max(level, static_cast<double>(b.steal - a.steal) / total);
    }
  }
  return level;
}

double StealMonitor::Share() const {
  if (readings_.size() < 2) return 0.0;
  const int64_t total = readings_.back().total - readings_.front().total;
  return total > 0 ? static_cast<double>(readings_.back().steal -
                                         readings_.front().steal) /
                         total
                   : 0.0;
}

LoadRun RunClosedLoop(int port, ClosedStream& stream, double seconds,
                      int64_t min_requests, Tracer* tracer,
                      const std::function<void(int64_t)>& after_response) {
  LoadRun run;
  auto client = rwdom::QueryClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    run.status = client.status();
    return run;
  }
  run.steal.Sample();
  run.start_us = NowUs();
  const double stop_us = run.start_us + seconds * 1e6;
  for (;;) {
    run.steal.MaybeSample();
    const double now = NowUs();
    const auto answered = static_cast<int64_t>(run.samples.size());
    if (now >= stop_us && answered >= min_requests) break;
    Sample sample;
    sample.request = stream.Next();
    if (tracer != nullptr) tracer->Expect(KeyOf(sample.request), answered);
    sample.due_us = sample.sent_us = NowUs();
    auto response = client->Roundtrip(sample.request.line);
    sample.recv_us = NowUs();
    if (!response.ok()) {
      run.status = response.status();
      run.samples.push_back(std::move(sample));  // Attempted, unanswered.
      break;
    }
    sample.answered = true;
    sample.response = std::move(*response);
    run.samples.push_back(std::move(sample));
    if (after_response) after_response(answered + 1);
  }
  run.end_us = run.samples.empty() ? NowUs() : run.samples.back().recv_us;
  run.steal.Sample();
  return run;
}

LoadRun RunOpenLoop(int port, const std::vector<Arrival>& schedule,
                    int connections, Tracer* tracer) {
  LoadRun run;
  std::vector<rwdom::UniqueFd> fds;
  std::vector<rwdom::LineDecoder> decoders(connections);
  for (int c = 0; c < connections; ++c) {
    auto fd = rwdom::TcpConnect("127.0.0.1", port);
    if (!fd.ok()) {
      run.status = fd.status();
      return run;
    }
    std::string greeting;
    run.status = ReadLine(fd->get(), &decoders[c], &greeting);
    if (!run.status.ok()) return run;
    fds.push_back(std::move(*fd));
  }
  std::vector<std::string> keys;
  if (tracer != nullptr) {
    for (const Arrival& arrival : schedule) {
      keys.push_back(KeyOf(arrival.request));
    }
  }
  run.samples.resize(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    run.samples[i].request = schedule[i].request;
  }

  // Per-connection FIFO of request ids awaiting a response: the server
  // answers each connection's requests in order.
  std::mutex mutex;
  std::vector<std::deque<int64_t>> in_flight(connections);  // Guarded.
  bool sender_done = false;                                  // Guarded.
  Status send_status;                                        // Guarded.

  run.steal.Sample();
  run.start_us = NowUs();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point origin = Clock::now();
  std::thread sender([&] {
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& arrival = schedule[i];
      run.steal.MaybeSample();
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(arrival.due_seconds)));
      Sample& sample = run.samples[i];
      sample.due_us = run.start_us + arrival.due_seconds * 1e6;
      if (tracer != nullptr) {
        tracer->Expect(keys[i], static_cast<int64_t>(i));
      }
      sample.sent_us = NowUs();
      {
        std::lock_guard<std::mutex> lock(mutex);
        in_flight[arrival.connection].push_back(static_cast<int64_t>(i));
      }
      Status sent = rwdom::SendAll(fds[arrival.connection].get(),
                                   arrival.request.line + "\n");
      if (!sent.ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        send_status = sent;
        break;
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    sender_done = true;
  });

  std::vector<pollfd> polls(connections);
  for (int c = 0; c < connections; ++c) {
    polls[c] = pollfd{fds[c].get(), POLLIN, 0};
  }
  double last_send_us = 0.0;
  char buffer[65536];
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      bool idle = true;
      for (const auto& queue : in_flight) idle = idle && queue.empty();
      if (sender_done && (idle || !send_status.ok())) break;
      if (sender_done && last_send_us == 0.0) last_send_us = NowUs();
    }
    if (last_send_us > 0.0 && NowUs() - last_send_us > kDrainTimeoutUs) {
      run.status = Status::DeadlineExceeded("responses still outstanding");
      break;
    }
    if (::poll(polls.data(), polls.size(), 100) <= 0) continue;
    for (int c = 0; c < connections; ++c) {
      if ((polls[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const ssize_t got = ::recv(polls[c].fd, buffer, sizeof(buffer), 0);
      if (got <= 0) {
        run.status = Status::IoError("connection closed mid-run");
        break;
      }
      const double now = NowUs();
      decoders[c].Append(std::string_view(buffer, static_cast<size_t>(got)));
      std::string line;
      while (decoders[c].Next(&line) == rwdom::LineDecoder::Event::kLine) {
        int64_t id = -1;
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (!in_flight[c].empty()) {
            id = in_flight[c].front();
            in_flight[c].pop_front();
          }
        }
        if (id < 0) continue;  // Unsolicited line: never answered twice.
        Sample& sample = run.samples[id];
        sample.recv_us = now;
        sample.answered = true;
        sample.response = std::move(line);
        run.end_us = now;
      }
    }
    if (!run.status.ok()) break;
  }
  if (!run.status.ok()) {
    // Unblock a sender stuck on a dead connection before joining it.
    for (rwdom::UniqueFd& fd : fds) ::shutdown(fd.get(), SHUT_RDWR);
  }
  sender.join();
  run.steal.Sample();
  if (run.status.ok()) run.status = send_status;
  return run;
}

}  // namespace perfbench
