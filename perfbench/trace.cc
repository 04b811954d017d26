#include "trace.h"

#include <chrono>
#include <fstream>
#include <utility>

#include "util/json.h"

namespace perfbench {

double NowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

std::string RequestKey(const rwdom::ParsedRequest& request) {
  std::string key = request.command + "|" + request.graph;
  for (const auto& [flag, value] : request.flags) {
    key += "|" + flag + "=" + value;
  }
  return key;
}

void Tracer::Expect(const std::string& key, int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  expected_[key].push_back(id);
}

int64_t Tracer::Claim(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = expected_.find(key);
  if (it == expected_.end() || it->second.empty()) return -1;
  const int64_t id = it->second.front();
  it->second.pop_front();
  return id;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

rwdom::Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return rwdom::Status::IoError("cannot write " + path);
  for (const Span& span : spans()) {
    rwdom::JsonWriter json;
    json.BeginObject();
    json.Key("id").Int(span.request_id);
    json.Key("name").String(span.name);
    json.Key("parent").String(span.parent);
    json.Key("start_us").Number(span.start_us);
    json.Key("end_us").Number(span.end_us);
    json.EndObject();
    out << json.ToString() << "\n";
  }
  return out ? rwdom::Status::OK() : rwdom::Status::IoError("write " + path);
}

}  // namespace perfbench
