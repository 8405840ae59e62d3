// perfbench — the DLFS benchmark (one workload per process).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Repeats whole rounds of the workload (set-up, mount, cold epoch,
// measured epochs, checks) until the next round would overrun --seconds
// of wall time, at least one round. Simulated figures come from the first
// round and every later round must reproduce them exactly; host figures
// (process CPU time, see HostClock) are medians over the rounds after the
// first (the warm-up round counts only when fewer than three ran), setup_s
// the median of five set-ups. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). The line
// before it, prefixed "perfbench-detail ", holds every figure of the
// first round for the steadiness check. --trace 1 also records spans
// around every call into DLFS and writes them to --trace-out as Chrome
// trace-event JSON.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::HostClock;
using perfbench::json_number;
using perfbench::json_string;
using perfbench::Metric;
using perfbench::RoundResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(argv[0]);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0)) usage(argv[0]);
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Simulated figures of round r must equal round 0's exactly.
void check_reproduced(const std::vector<RoundResult>& rounds,
                      std::vector<std::string>& problems) {
  for (std::size_t r = 1; r < rounds.size(); ++r) {
    auto same = [&](const std::vector<Metric>& a,
                    const std::vector<Metric>& b) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (!a[i].host && a[i].value != b[i].value) {
          problems.push_back("round " + std::to_string(r) + " changed " +
                             a[i].name + ": " + json_number(a[i].value) +
                             " -> " + json_number(b[i].value));
        }
      }
    };
    same(rounds[0].end_to_end, rounds[r].end_to_end);
    same(rounds[0].per_layer, rounds[r].per_layer);
    if (rounds[r].attempted != rounds[0].attempted ||
        rounds[r].failed != rounds[0].failed) {
      problems.push_back("round " + std::to_string(r) +
                         " changed attempted/failed");
    }
  }
}

// Round 0's figures with host figures replaced by the median over rounds.
// Round 0 warms the process up (first touch of the heap, cold caches and
// lazy binding) and ran slower than the rest, so it is left out of the
// host median whenever at least two other rounds ran.
std::vector<Metric> combine(const std::vector<RoundResult>& rounds,
                            std::vector<Metric> RoundResult::*field) {
  std::vector<Metric> out = rounds[0].*field;
  const std::size_t first = rounds.size() >= 3 ? 1 : 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].host) continue;
    std::vector<double> vals;
    for (std::size_t r = first; r < rounds.size(); ++r) {
      vals.push_back((rounds[r].*field)[i].value);
    }
    out[i].value = median(vals);
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_units) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": ";
    s += with_units ? "{\"value\": " + json_number(ms[i].value) +
                          ", \"unit\": \"" + ms[i].unit + "\"}"
                    : json_number(ms[i].value);
  }
  return s + "}";
}

// Set-ups measured per run: the first one also pays process start-up and
// first-touch page faults, the median reports a warm one.
constexpr std::size_t kSetups = 5;

int run(const Args& args) {
  const auto process_start = HostClock::now();
  const auto wall_start = std::chrono::steady_clock::now();
  const perfbench::WorkloadSpec spec = perfbench::make_workload(args.workload);

  // setup_s is the median of kSetups set-ups: the first round's (timed
  // from process start) and kSetups - 1 set-up-only repetitions after it.
  // peak_rss_mib is read after that first round, before the repetitions
  // and later rounds fragment the heap, less what the RAM-backed devices
  // held: the simulated drives' contents stand in for SSDs, and counting
  // them would charge a correct write (say, one that stops a job's mount
  // overwriting another's region) as a memory regression.
  std::vector<RoundResult> rounds;
  std::vector<double> setups;
  perfbench::Tracer first_trace(process_start);
  double rss_after_first_round = 0;
  for (;;) {
    const auto wall_round_start = std::chrono::steady_clock::now();
    const auto round_start = rounds.empty() ? process_start : HostClock::now();
    // Every traced round records its spans (so each pays the same tracing
    // cost); only the first round's trace is kept for the file.
    perfbench::Tracer scratch(round_start);
    perfbench::Tracer* tracer =
        !args.trace ? nullptr : rounds.empty() ? &first_trace : &scratch;
    rounds.push_back(
        perfbench::run_round(spec, args.seed, round_start, tracer));
    if (rounds.size() == 1) {
      setups.push_back(rounds[0].setup_s);
      rss_after_first_round = peak_rss_mib() - rounds[0].device_store_mib;
      while (setups.size() < kSetups) {
        const auto t0 = HostClock::now();
        auto rig = perfbench::set_up(spec, args.seed, nullptr);
        setups.push_back(
            std::chrono::duration<double>(HostClock::now() - t0).count());
      }
    }
    // The run length is wall time: rounds repeat until the next one would
    // overrun --seconds.
    const auto now = std::chrono::steady_clock::now();
    const double round_s =
        std::chrono::duration<double>(now - wall_round_start).count();
    const double elapsed =
        std::chrono::duration<double>(now - wall_start).count();
    if (elapsed + round_s > args.seconds || rounds.size() >= 1000) break;
  }

  std::vector<std::string> problems = rounds[0].problems;
  check_reproduced(rounds, problems);
  std::vector<Metric> e2e = combine(rounds, &RoundResult::end_to_end);
  e2e.push_back({"setup_s", "s", median(setups), true});
  e2e.push_back({"peak_rss_mib", "MiB", rss_after_first_round, true});
  const std::vector<Metric> layers = combine(rounds, &RoundResult::per_layer);

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
  }

  if (args.trace && !args.trace_out.empty()) {
    std::vector<std::pair<std::string, double>> summary;
    for (const auto& m : layers) summary.emplace_back(m.name, m.value);
    for (const auto& m : e2e) summary.emplace_back(m.name, m.value);
    if (!first_trace.write(args.trace_out, args.workload, args.seed, summary)) {
      problems.push_back("cannot write trace to " + args.trace_out);
    }
  }

  for (const auto& p : problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty();

  std::string problem_list = "[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) problem_list += ", ";
    problem_list += json_string(problems[i]);
  }
  problem_list += "]";
  std::string host_list = "[";
  for (const std::vector<Metric>* ms : {&std::as_const(e2e), &layers}) {
    for (const auto& m : *ms) {
      if (!m.host) continue;
      if (host_list.size() > 1) host_list += ", ";
      host_list += "\"" + m.name + "\"";
    }
  }
  host_list += "]";
  std::string rounds_host = "[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (i > 0) rounds_host += ", ";
    for (const auto& m : rounds[i].end_to_end) {
      if (m.name == "host_s") rounds_host += json_number(m.value);
    }
  }
  rounds_host += "]";
  std::printf(
      "perfbench-detail {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"rounds\": %zu, \"attempted_per_round\": %llu, "
      "\"failed_per_round\": %llu, \"spans\": %zu, \"end_to_end\": %s, "
      "\"per_layer\": %s, \"host_metrics\": %s, \"host_s_per_round\": %s, "
      "\"problems\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, rounds.size(),
      static_cast<unsigned long long>(rounds[0].attempted),
      static_cast<unsigned long long>(rounds[0].failed), rounds[0].spans,
      metrics_json(e2e, false).c_str(),
      metrics_json(layers, false).c_str(), host_list.c_str(),
      rounds_host.c_str(), problem_list.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace ? layers : e2e, true).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
