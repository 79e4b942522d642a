// spans.hpp — in-memory spans recorded around the benchmark's calls into
// each library layer.
//
// A span is (name, start, end, parent): the parent is the span that was
// open when this one began, so one repetition's spans form a tree under
// its root.  Spans live in memory for the whole run; per-layer metrics are
// read back from them by name, and --spans-out writes them all out at the
// end.  A null recorder disables recording, which is how the untraced run
// measures end-to-end metrics with tracing off.
#pragma once

#include <chrono>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;       ///< index of the enclosing span; -1 at the root.
  double start_s = 0.0;  ///< seconds since the recorder was created.
  double end_s = 0.0;

  double seconds() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int Begin(std::string name) {
    spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                      Now(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = Now();
    open_.pop_back();
  }

  /// Durations of every closed span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.seconds());
    }
    return out;
  }

  double Total(const std::string& name) const {
    double total = 0.0;
    for (double d : Durations(name)) total += d;
    return total;
  }

  /// One JSON object per line: {"group", "id", "parent", "name", "start_s",
  /// "end_s"}; ids and parents are indices within `group`.
  void WriteJsonLines(std::ostream& os, const char* group) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"group\": \"" << group << "\", \"id\": " << i
         << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
         << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
         << "}\n";
    }
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; records nothing when the recorder is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name) : recorder_(recorder) {
    if (recorder_ != nullptr) id_ = recorder_->Begin(std::move(name));
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_ = -1;
};

}  // namespace perfbench
