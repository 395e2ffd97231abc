// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed on one thread, strictly nested (workload ->
// phase -> op -> layer call), and kept in a flat vector until the run ends,
// when they are summarised and written out as one JSON document. A span's
// self time is its duration minus the part of it that its child spans
// cover. Recording costs two steady_clock reads and a vector push per
// span; nothing is formatted until the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wavebench {

struct Span {
  std::string name;
  std::int64_t parent = -1;  // index into the recorder's spans, -1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Registry-counter deltas taken across the span (ops only).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  /// Opens a child of the innermost open span; returns its index.
  std::size_t open(std::string_view name);
  /// Closes the innermost open span, which must be `id`.
  void close(std::size_t id);
  void annotate(std::size_t id, std::string key, std::uint64_t value);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration_ms(std::size_t id) const;
  /// Self time of every span, in ms, indexed like spans().
  [[nodiscard]] std::vector<double> self_ms() const;
  /// Count, total and self time per span name over the spans that descend
  /// from span `ancestor` (the ancestor itself excluded).
  [[nodiscard]] std::map<std::string, SpanTotals> totals_under(
      std::size_t ancestor) const;

  /// Writes every span (with self time and counter deltas) as JSON.
  /// Throws std::runtime_error when the file cannot be written.
  void write_json(const std::string& path,
                  const std::string& provenance_json) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null recorder makes it a no-op (no allocation, no clock
/// read), so untraced and traced passes share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name)
      : rec_(rec), id_(rec ? rec->open(name) : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::size_t id_;
};

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns();

}  // namespace wavebench
