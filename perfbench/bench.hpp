#pragma once

// Shared declarations of the DLFS benchmark (perfbench): workload specs, the
// per-round rig that owns one simulated deployment, per-layer counter
// snapshots and the metrics one round yields.
//
// perfbench touches DLFS only through its public API: DlfsFleet::mount,
// DlfsInstance::sequence / bread / bread_views / release_views / stats(),
// NvmfTarget::crash / recover, and the public getters of the simulator,
// cores, devices, fabric, pool, cache and tenant handles.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Delivery { kCopy, kViews };

struct JobSpec {
  std::string name;
  bool foreground = true;
  std::size_t samples = 0;
  // Sample sizes are drawn uniformly from [min_sample_bytes, sample_bytes]
  // with the run seed; min_sample_bytes == 0 means every sample is
  // exactly sample_bytes.
  std::uint32_t sample_bytes = 4096;
  std::uint32_t min_sample_bytes = 0;
  dlfs::core::DlfsConfig config;
  std::vector<dlfs::hw::NodeId> clients;
  std::vector<dlfs::hw::NodeId> storage;
  Delivery delivery = Delivery::kCopy;
  std::size_t batch = 16;
  // Foreground: one cold epoch plus the measured ones. Background: a
  // fixed number of its own epochs, run beside the foreground.
  std::uint32_t epochs = 1;
};

// One storage slot of the foreground job crashes `after` into foreground
// epoch `epoch` and heals `outage` later.
struct CrashPlan {
  std::uint32_t epoch = 1;
  std::uint16_t slot = 0;
  dlsim::SimDuration after = 0;
  dlsim::SimDuration outage = 0;
};

struct WorkloadSpec {
  std::string name;
  std::uint32_t nodes = 1;
  dlfs::cluster::NodeConfig node;
  bool governed = false;  // jobs share one TenantGovernor
  // jobs[0] is the foreground job.
  std::vector<JobSpec> jobs;
  // Job indices in mount order; empty = index order.
  std::vector<std::uint32_t> mount_order;
  std::optional<CrashPlan> crash;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec make_workload(const std::string& name);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  bool host = false;  // host-clock figure (varies run to run)
};

// Deliveries of one job in one epoch, indexed by sample id.
struct EpochTally {
  std::vector<std::uint8_t> count;
  std::vector<std::uint8_t> bad;  // bytes differed from fill_content
};

struct JobRun {
  JobRun(const JobSpec& s, std::uint32_t index,
         std::uint64_t seed, dlfs::cluster::Cluster& cluster,
         std::shared_ptr<dlfs::core::TenantGovernor> gov);

  const JobSpec* spec;
  std::uint32_t index;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  dlfs::core::DlfsFleet fleet;
  dlsim::SimDuration mount_time = 0;
  // Samples whose reads the device_base fault corrupts (see
  // predict_device_base_fault in workloads.cpp).
  std::vector<std::uint8_t> predicted_bad;
  std::vector<EpochTally> epochs;
  dlsim::SimTime done_at = 0;
  HostClock::time_point host_done{};
};

// Raw cumulative per-layer counters at one instant.
struct Snapshot {
  dlsim::SimTime sim_at = 0;
  std::vector<std::pair<std::string, double>> counters;
  std::vector<double> nic_bytes;     // per fabric node, sent + received
  std::vector<double> pipe_busy_ns;  // per storage device
  [[nodiscard]] double get(const std::string& name) const;
};

struct Rig {
  Rig(const WorkloadSpec& w, std::uint64_t seed, Tracer* tracer);

  const WorkloadSpec* spec;
  std::uint64_t seed;
  Tracer* tracer;
  dlsim::Simulator sim;
  dlfs::cluster::Cluster cluster;
  std::shared_ptr<dlfs::core::TenantGovernor> gov;
  std::vector<std::unique_ptr<JobRun>> jobs;
  std::vector<JobRun*> mount_order;
  std::vector<dlfs::hw::NodeId> storage_nodes;  // union over jobs

  // --- measurement state ---------------------------------------------------
  std::int64_t round_span = Tracer::kNoParent;
  std::uint64_t batches = 0;  // bread / bread_views calls, all jobs
  bool measuring = false;
  dlsim::SimTime cold_start = 0, measure_start = 0, measure_end = 0;
  HostClock::time_point host_measure_start{}, host_measure_end{};
  double check_s = 0;  // host time spent verifying deliveries
  double check_s_at_measure_start = 0, check_s_at_measure_end = 0;
  std::vector<dlsim::SimDuration> fg_batch_latency;  // measured epochs
  std::uint64_t fg_measured_samples = 0;
  std::uint64_t window_bytes = 0;  // all jobs, inside the measured window
  std::vector<std::uint32_t> fg_measured_ids;
  Snapshot at_measure_start, at_measure_end;
  double fg_cpu_ns_start = 0, fg_cpu_ns_end = 0;
  dlsim::SimTime crashed_at = 0;
  dlsim::SimDuration restore_time = 0;
  // The repair backlog as last scanned, how many of its samples (from the
  // front) have their copies back, and the declarations at the scan.
  std::vector<std::uint32_t> backlog;
  std::size_t backlog_restored = 0;
  std::uint64_t backlog_key = 0;
  std::vector<std::string> problems;  // correctness violations
};

[[nodiscard]] Snapshot take_snapshot(Rig& rig);
/// Busy time of the foreground job's client I/O cores plus copy threads.
[[nodiscard]] double foreground_cpu_ns(Rig& rig);
/// Per-layer metrics over the measured epochs. `host_ns_per_lookup` comes
/// from the directory replay; the other host figure from the rig.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const Rig& rig,
                                                    double host_ns_per_lookup);

struct RoundResult {
  std::vector<Metric> end_to_end;  // all but setup_s and peak_rss_mib
  double setup_s = 0;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::size_t spans = 0;
  double device_store_mib = 0;  // RAM-backed device contents at round end
};

/// Builds the workload's deployment from the seed and mounts every job.
[[nodiscard]] std::unique_ptr<Rig> set_up(const WorkloadSpec& spec,
                                          std::uint64_t seed, Tracer* tracer);
/// One round: set_up(), then every epoch of every job, checking every
/// delivery. `round_start` is when this round began (process start for
/// the first); set-up time is reported apart from the other figures.
[[nodiscard]] RoundResult run_round(const WorkloadSpec& spec,
                                    std::uint64_t seed,
                                    HostClock::time_point round_start,
                                    Tracer* tracer);

}  // namespace perfbench
