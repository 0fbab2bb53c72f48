// Span recorder for the benchmark's traced mode.
//
// Spans are recorded from the benchmark's own code, around each call into a
// library layer (the library itself is not instrumented). A span carries the
// name "<layer>.<call>", its start and end on the steady clock, the span that
// was open when it began (its parent) and the trial it belongs to. Spans stay
// in memory and are written out once, when the run ends. With recording off
// a span scope costs one branch, which is how the untraced run that supplies
// the end-to-end numbers stays free of tracing work.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pcfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  std::string_view name;  ///< a string literal: "<layer>.<call>"
  int trial = 0;
  int parent = -1;        ///< index into the span list, -1 for a root span
  double start_s = 0.0;   ///< since the tracer was created
  double end_s = 0.0;

  [[nodiscard]] double duration() const { return end_s - start_s; }
  [[nodiscard]] std::string_view layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  /// Ends its span on destruction; a no-op when recording was off at entry.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Starts recording spans for `trial`, or stops recording when `record` is
  /// false. Call between trials only.
  void begin_trial(int trial, bool record);

  [[nodiscard]] Scope span(std::string_view name) {
    return Scope(recording_ ? this : nullptr, name);
  }

  /// Sum of span durations per name, for one trial.
  [[nodiscard]] std::map<std::string, double> total_by_name(int trial) const;
  /// Self time per layer for one trial: each span's duration minus the part
  /// of it that its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_by_layer(int trial) const;
  /// Durations of every span called `name` in `trial`, in order.
  [[nodiscard]] std::vector<double> durations(int trial, std::string_view name) const;

  /// All spans as a JSON document (one object per span).
  [[nodiscard]] std::string to_json() const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  int trial_ = 0;
  bool recording_ = false;
};

}  // namespace pcfbench
