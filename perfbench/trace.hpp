#pragma once

// Span recorder for the traced benchmark run.
//
// Every call the benchmark makes into DLFS (mount, epoch, bread /
// bread_views per client, view release, crash / recover) becomes one
// span carrying simulated and host start/end, its parent span and the
// epoch id its children share. Counter snapshots taken at each epoch
// boundary ride along. Everything stays in memory until write(), which
// emits one Chrome trace-event JSON file (open in chrome://tracing or
// Perfetto): spans as complete ("X") events on the simulated clock with
// the host clock in their args, snapshots as counter ("C") events.
//
// The recorder never touches the simulator, so a traced run executes the
// same simulated events as an untraced one; only host time differs.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace perfbench {

// Host time is the CPU time this (single-threaded) process consumed. On a
// machine shared with other work, wall time also counts the intervals the
// process sat preempted, which made identical runs differ by up to a
// third; CPU time counts only the simulator's own work.
struct HostClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<HostClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(std::int64_t{ts.tv_sec} * 1'000'000'000 +
                               ts.tv_nsec));
  }
};

/// JSON text of a number with all its digits, and of a quoted string.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

class Tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;

  explicit Tracer(HostClock::time_point origin) : origin_(origin) {}

  /// Opens a span; returns its id (stable for end()).
  std::int64_t begin(std::string name, std::int64_t parent,
                     std::int64_t epoch, std::uint32_t job,
                     std::uint32_t track, dlsim::SimTime sim_now);
  void end(std::int64_t id, dlsim::SimTime sim_now);

  /// Per-layer counters at an epoch boundary.
  void snapshot(std::int64_t epoch, dlsim::SimTime sim_now,
                std::vector<std::pair<std::string, double>> counters);

  /// Names the trace's processes (one per DLFS job).
  void name_job(std::uint32_t job, std::string name);

  /// Writes the whole trace, plus `summary` (name -> value) as top-level
  /// metadata, to `path`. Returns false when the file cannot be written.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed,
             const std::vector<std::pair<std::string, double>>& summary) const;

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    std::int64_t parent = kNoParent;
    std::int64_t epoch = -1;
    std::uint32_t job = 0;
    std::uint32_t track = 0;
    dlsim::SimTime sim_start = 0;
    dlsim::SimTime sim_end = 0;
    double host_start_us = 0;
    double host_end_us = 0;
  };
  struct Snapshot {
    std::int64_t epoch = -1;
    dlsim::SimTime sim_at = 0;
    double host_at_us = 0;
    std::vector<std::pair<std::string, double>> counters;
  };

  [[nodiscard]] double host_us() const;

  HostClock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Snapshot> snapshots_;
  std::vector<std::pair<std::uint32_t, std::string>> job_names_;
};

}  // namespace perfbench
