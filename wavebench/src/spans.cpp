#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "common/telemetry.hpp"

namespace wavebench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t SpanRecorder::open(std::string_view name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("span closed out of order: " + spans_[id].name);
  }
  spans_[id].end_ns = now_ns();
  stack_.pop_back();
}

void SpanRecorder::annotate(std::size_t id, std::string key,
                            std::uint64_t value) {
  spans_[id].counters.emplace_back(std::move(key), value);
}

double SpanRecorder::duration_ms(std::size_t id) const {
  const Span& s = spans_[id];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
}

std::vector<double> SpanRecorder::self_ms() const {
  // Children are recorded after their parent and, on one thread, in start
  // order; merging their intervals (clipped to the parent) gives the
  // covered part even if two children were ever to overlap.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open_iv = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open_iv && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open_iv) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open_iv = true;
    }
    if (open_iv) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return self;
}

std::map<std::string, SpanTotals> SpanRecorder::totals_under(
    std::size_t ancestor) const {
  const std::vector<double> self = self_ms();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = ancestor + 1; i < spans_.size(); ++i) {
    std::int64_t p = spans_[i].parent;
    while (p >= 0 && static_cast<std::size_t>(p) != ancestor) {
      p = spans_[static_cast<std::size_t>(p)].parent;
    }
    if (p < 0) continue;
    SpanTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_ms += duration_ms(i);
    t.self_ms += self[i];
  }
  return out;
}

void SpanRecorder::write_json(const std::string& path,
                              const std::string& provenance_json) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  const std::vector<double> self = self_ms();
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"provenance\":" << provenance_json << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) os << ",";
    os << "\n{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
       << waveck::telemetry::json_escape(s.name)
       << "\",\"start_us\":" << (s.start_ns - t0) / 1000
       << ",\"dur_ms\":" << duration_ms(i) << ",\"self_ms\":" << self[i];
    if (!s.counters.empty()) {
      os << ",\"counters\":{";
      for (std::size_t k = 0; k < s.counters.size(); ++k) {
        if (k) os << ",";
        os << "\"" << s.counters[k].first << "\":" << s.counters[k].second;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace wavebench
