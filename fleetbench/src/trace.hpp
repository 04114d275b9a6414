// In-memory span recorder for the traced re-drive.
//
// Spans are recorded around each public library call the benchmark makes
// (name, start, end, parent span, batch id), kept in memory and written once
// as Chrome trace-event JSON. A span's self time is its duration minus the
// time its child spans cover; spans are strictly nested (one thread), so the
// child coverage is the sum of the children's durations.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace fleetbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int64_t batch = -1;
  };

  /// RAII span: opened on construction, closed on destruction. A disabled
  /// tracer makes both no-ops, so the untraced pass runs the same code.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t batch);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  Scope scope(const char* name, std::int64_t batch = -1) {
    return Scope(*this, name, batch);
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span, in span order.
  std::vector<std::int64_t> self_ns() const;
  /// Summed self time per span name.
  std::map<std::string, double> self_ns_by_name() const;
  /// Durations (ns) of every span called `name`.
  std::vector<double> durations_ns(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, µs).
  void write_chrome_json(const std::filesystem::path& file) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

}  // namespace fleetbench
