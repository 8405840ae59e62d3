#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

double sim_us(dlsim::SimTime t) { return static_cast<double>(t) * 1e-3; }

}  // namespace

double Tracer::host_us() const {
  return std::chrono::duration<double, std::micro>(HostClock::now() - origin_)
      .count();
}

std::int64_t Tracer::begin(std::string name, std::int64_t parent,
                           std::int64_t epoch, std::uint32_t job,
                           std::uint32_t track, dlsim::SimTime sim_now) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.epoch = epoch;
  s.job = job;
  s.track = track;
  s.sim_start = sim_now;
  s.host_start_us = host_us();
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id, dlsim::SimTime sim_now) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.sim_end = sim_now;
  s.host_end_us = host_us();
}

void Tracer::snapshot(std::int64_t epoch, dlsim::SimTime sim_now,
                      std::vector<std::pair<std::string, double>> counters) {
  snapshots_.push_back(
      Snapshot{epoch, sim_now, host_us(), std::move(counters)});
}

void Tracer::name_job(std::uint32_t job, std::string name) {
  job_names_.emplace_back(job, std::move(name));
}

bool Tracer::write(
    const std::string& path, const std::string& workload, std::uint64_t seed,
    const std::vector<std::pair<std::string, double>>& summary) const {
  std::ostringstream o;
  o << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) o << ",\n";
    first = false;
  };
  for (const auto& [job, name] : job_names_) {
    sep();
    o << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << job
      << ",\"args\":{\"name\":" << json_string(name) << "}}";
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    sep();
    o << "{\"name\":" << json_string(s.name) << ",\"cat\":\"dlfs\",\"ph\":\"X\""
      << ",\"ts\":" << json_number(sim_us(s.sim_start))
      << ",\"dur\":" << json_number(sim_us(s.sim_end - s.sim_start))
      << ",\"pid\":" << s.job << ",\"tid\":" << s.track
      << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
      << ",\"epoch\":" << s.epoch
      << ",\"host_start_us\":" << json_number(s.host_start_us)
      << ",\"host_dur_us\":" << json_number(s.host_end_us - s.host_start_us)
      << "}}";
  }
  for (const Snapshot& snap : snapshots_) {
    sep();
    o << "{\"name\":\"counters\",\"ph\":\"C\",\"ts\":"
      << json_number(sim_us(snap.sim_at)) << ",\"pid\":0,\"args\":{";
    for (std::size_t k = 0; k < snap.counters.size(); ++k) {
      if (k > 0) o << ",";
      o << json_string(snap.counters[k].first) << ":"
        << json_number(snap.counters[k].second);
    }
    o << "}}";
  }
  o << "],\n\"otherData\":{\"workload\":" << json_string(workload)
    << ",\"seed\":" << seed << ",\"spans\":" << spans_.size()
    << ",\"epoch_snapshots\":[";
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    const Snapshot& snap = snapshots_[i];
    if (i > 0) o << ",";
    o << "{\"epoch\":" << snap.epoch
      << ",\"sim_us\":" << json_number(sim_us(snap.sim_at))
      << ",\"host_us\":" << json_number(snap.host_at_us) << "}";
  }
  o << "],\"per_layer\":{";
  for (std::size_t k = 0; k < summary.size(); ++k) {
    if (k > 0) o << ",";
    o << json_string(summary[k].first) << ":"
      << json_number(summary[k].second);
  }
  o << "}}}\n";

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string text = o.str();
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(f);
}

}  // namespace perfbench
