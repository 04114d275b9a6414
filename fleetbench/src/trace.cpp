#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace fleetbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t batch)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer_.spans_.size());
  tracer_.spans_.push_back({name, now_ns(), 0, tracer_.open_, batch});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  tracer_.open_ = span.parent;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

std::map<std::string, double> Tracer::self_ns_by_name() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]);
  }
  return out;
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

void Tracer::write_chrome_json(const std::filesystem::path& file) const {
  std::ofstream out(file);
  if (!out) throw std::runtime_error("cannot write " + file.string());
  const std::vector<std::int64_t> self = self_ns();
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"id\":%zu,\"parent\":%d,\"batch\":%lld,\"self_us\":%.3f}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<int>(std::string(s.name).find('.')), s.name,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, static_cast<long long>(s.batch),
                  static_cast<double>(self[i]) / 1e3);
    out << buf;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

}  // namespace fleetbench
