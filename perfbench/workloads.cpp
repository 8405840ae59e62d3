// The four benchmark workloads and the round runner.
//
// One round builds a fresh simulated deployment from the seed, mounts
// every job, runs the foreground job's cold epoch plus its measured
// epochs (and the background job beside it), checks every delivered
// sample against Dataset::fill_content and exactly-once delivery, and
// turns the counters into metrics. Rounds of one seed are identical on
// the simulated clock; only host time differs between them.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/time.hpp"

namespace perfbench {

using dlsim::SimDuration;
using dlsim::SimTime;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

namespace {

double seconds_since(HostClock::time_point t0, HostClock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// --- workload definitions ----------------------------------------------------

dlfs::cluster::NodeConfig ram_node() {
  dlfs::cluster::NodeConfig nc;
  nc.synthetic_store = false;  // RAM-backed: delivered bytes are checkable
  return nc;
}

// 64 symmetric nodes, each both client and storage; 3.5-4 KiB samples,
// chunk-level batching, copy delivery, full directory. The dataset is
// about 15 times one client's 64-chunk sample cache.
WorkloadSpec fleet_scale() {
  WorkloadSpec w;
  w.name = "fleet_scale";
  w.nodes = 64;
  w.node = ram_node();
  JobSpec j;
  j.name = "fleet";
  j.samples = 64 * 1024;
  j.sample_bytes = 4_KiB;
  j.min_sample_bytes = 3584;
  j.config.batching = dlfs::core::BatchingMode::kChunkLevel;
  j.config.cache_chunks = 64;
  j.config.pool_bytes = 32_MiB;
  j.delivery = Delivery::kCopy;
  j.batch = 32;
  j.epochs = 4;
  w.jobs.push_back(std::move(j));
  return w;
}

// Two jobs under one TenantGovernor over four storage nodes. The kHigh
// foreground job reads 56-64 KiB samples zero-copy on node 4, keeping each
// view batch pinned while it fetches the next; the kBackground job streams
// 4 KiB samples with a 64-unit prefetch window on node 5 for a fixed three
// epochs, which end about when the foreground's nine do. The background
// mounts first, at device_base 256 MiB: the device_base fault streams its
// shards to offset 0 instead, where the foreground's mount then overwrites
// them (about 32 MiB per node against the foreground's 56-64 MiB), so
// every background read returns unwritten bytes while every foreground
// read stays correct. The failed share is therefore the same on every
// seed.
WorkloadSpec shared_disagg() {
  WorkloadSpec w;
  w.name = "shared_disagg";
  w.nodes = 6;
  w.node = ram_node();
  w.governed = true;

  JobSpec fg;
  fg.name = "foreground";
  fg.samples = 4096;
  fg.sample_bytes = 64_KiB;
  fg.min_sample_bytes = 56_KiB;
  fg.config.batching = dlfs::core::BatchingMode::kChunkLevel;
  fg.config.tenant.name = "foreground";
  fg.config.tenant.priority = dlfs::core::QosClass::kHigh;
  fg.config.device_base = 0;
  fg.clients = {4};
  fg.storage = {0, 1, 2, 3};
  fg.delivery = Delivery::kViews;
  fg.batch = 8;
  fg.epochs = 9;
  w.jobs.push_back(std::move(fg));

  JobSpec bg;
  bg.name = "background";
  bg.foreground = false;
  bg.samples = 32768;
  bg.sample_bytes = 4_KiB;
  bg.config.batching = dlfs::core::BatchingMode::kChunkLevel;
  bg.config.prefetch.initial_units = 64;
  bg.config.prefetch.max_units = 64;
  bg.config.tenant.name = "background";
  bg.config.tenant.priority = dlfs::core::QosClass::kBackground;
  bg.config.device_base = 256_MiB;
  bg.clients = {5};
  bg.storage = {0, 1, 2, 3};
  bg.delivery = Delivery::kCopy;
  bg.batch = 16;
  bg.epochs = 3;
  w.jobs.push_back(std::move(bg));
  w.mount_order = {1, 0};
  return w;
}

// One storage node, four clients on three nodes (two co-located on node
// 1). Sample-level batching of 14-16 KiB samples, peer cache on, sharded
// directory whose lookup cache is smaller than each client's per-epoch
// share, sample cache large enough for that share.
WorkloadSpec warm_reshuffle() {
  WorkloadSpec w;
  w.name = "warm_reshuffle";
  w.nodes = 4;
  w.node = ram_node();
  JobSpec j;
  j.name = "reshuffle";
  j.samples = 8192;
  j.sample_bytes = 16_KiB;
  j.min_sample_bytes = 14_KiB;
  j.config.batching = dlfs::core::BatchingMode::kSampleLevel;
  j.config.chunk_bytes = 16_KiB;  // one cache chunk per sample
  j.config.cache_chunks = 2048 + 256;  // per-client share (2048) + slack
  j.config.pool_bytes = (2048 + 256 + 512) * std::uint64_t{16_KiB};
  j.config.peer_cache.enabled = true;
  j.config.directory.mode = dlfs::core::DirectoryMode::kSharded;
  j.config.directory.lookup_cache_entries = 1024;
  j.clients = {1, 1, 2, 3};
  j.storage = {0};
  j.delivery = Delivery::kCopy;
  j.batch = 16;
  j.epochs = 4;
  w.jobs.push_back(std::move(j));
  return w;
}

// Four storage nodes, one client, replication 2 with a declare-dead
// deadline and a repair budget. Storage slot 1 crashes early in the
// second epoch, stays down past the deadline, and heals later.
WorkloadSpec crash_repair() {
  WorkloadSpec w;
  w.name = "crash_repair";
  w.nodes = 5;
  w.node = ram_node();
  JobSpec j;
  j.name = "replicated";
  j.samples = 32768;
  j.sample_bytes = 4_KiB;
  j.min_sample_bytes = 3584;
  j.config.batching = dlfs::core::BatchingMode::kChunkLevel;
  j.config.fault.replication = dlfs::core::ReplicationConfig(2);
  j.config.fault.replication.declare_dead_after = 6_ms;
  j.config.fault.replication.repair_bytes_per_sec = 400'000'000;
  j.config.fault.reprobe_interval = 2_ms;
  j.config.fault.nvmf.command_timeout = 5_ms;
  j.config.fault.nvmf.reconnect_backoff = 200_us;
  j.config.fault.nvmf.reconnect_backoff_max = 1_ms;
  j.config.fault.nvmf.reconnect_attempts = 4;
  j.clients = {4};
  j.storage = {0, 1, 2, 3};
  j.delivery = Delivery::kCopy;
  j.batch = 16;
  j.epochs = 4;
  w.jobs.push_back(std::move(j));
  w.crash = CrashPlan{/*epoch=*/1, /*slot=*/1, /*after=*/2_ms,
                      /*outage=*/40_ms};
  return w;
}

std::uint64_t epoch_seed(std::uint64_t seed, std::uint32_t job,
                         std::uint32_t epoch) {
  return dlfs::hash_combine(dlfs::mix64(seed),
                            (std::uint64_t{job} << 32) | epoch);
}

dlfs::dataset::Dataset make_dataset(const JobSpec& s, std::uint32_t index,
                                    std::uint64_t seed) {
  const std::string prefix =
      "s" + std::to_string(seed) + "j" + std::to_string(index) + "_";
  dlfs::Rng rng(dlfs::hash_combine(dlfs::mix64(seed), 0x517e + index));
  const std::uint32_t lo = s.min_sample_bytes == 0 ? s.sample_bytes
                                                   : s.min_sample_bytes;
  std::vector<dlfs::dataset::SampleSpec> specs(s.samples);
  for (std::size_t i = 0; i < s.samples; ++i) {
    specs[i].name = prefix + std::to_string(i);
    specs[i].class_id = static_cast<std::uint32_t>(i % 10);
    specs[i].size = lo + static_cast<std::uint32_t>(
                             rng.next_below(s.sample_bytes - lo + 1));
  }
  return dlfs::dataset::Dataset(
      s.name, dlfs::hash_combine(dlfs::mix64(seed), index), std::move(specs));
}

dlfs::core::DlfsConfig job_config(
    const JobSpec& s, std::shared_ptr<dlfs::core::TenantGovernor> gov) {
  dlfs::core::DlfsConfig c = s.config;
  c.tenant.governor = std::move(gov);
  return c;
}

dlfs::hw::NodeId storage_node(const JobSpec& s, std::uint16_t slot) {
  return s.storage.empty() ? static_cast<dlfs::hw::NodeId>(slot)
                           : s.storage.at(slot);
}

// The device_base fault: DlfsFleet::mount_participant streams each slot's
// shard to the device from offset 0, while the layout, and so every read,
// places it at device_base. A job with device_base != 0 therefore reads
// bytes its mount never wrote. A misplaced stream could also overwrite a
// job mounted before it, but in shared_disagg the faulty job mounts first
// and the foreground's own mount rewrites its region, so only the first
// case occurs.
void predict_device_base_fault(Rig& rig) {
  for (const auto& job : rig.jobs) {
    job->predicted_bad.assign(job->fleet.layout().size(),
                              job->spec->config.device_base != 0 ? 1 : 0);
  }
}

// --- delivery checks -------------------------------------------------------

struct Checker {
  Rig* rig;
  JobRun* job;
  EpochTally* tally;
  std::vector<std::byte> expect;

  // Records one delivered sample whose bytes arrive in `pieces`.
  template <typename Pieces>
  void sample(std::uint32_t id, std::uint32_t len, const Pieces& pieces) {
    if (id >= tally->count.size()) {
      rig->problems.push_back(job->spec->name + ": delivered sample id " +
                              std::to_string(id) + " out of range");
      return;
    }
    if (tally->count[id] < 255) ++tally->count[id];
    bool ok = len == job->ds.sample(id).size;
    std::uint64_t off = 0;
    for (const std::span<const std::byte> piece : pieces) {
      if (!ok || off + piece.size() > len) {
        ok = false;
        break;
      }
      expect.resize(piece.size());
      job->ds.fill_content(id, off, expect);
      if (std::memcmp(piece.data(), expect.data(), piece.size()) != 0) {
        ok = false;
      }
      off += piece.size();
    }
    if (off != len) ok = false;
    if (!ok) tally->bad[id] = 1;
  }
};

void record_batch(Rig* rig, JobRun* job, std::uint32_t epoch,
                  SimDuration latency, std::uint64_t bytes,
                  const std::vector<std::uint32_t>& ids) {
  ++rig->batches;
  if (rig->measuring) rig->window_bytes += bytes;
  if (job->spec->foreground && epoch >= 1) {
    rig->fg_batch_latency.push_back(latency);
    rig->fg_measured_samples += ids.size();
    rig->fg_measured_ids.insert(rig->fg_measured_ids.end(), ids.begin(),
                                ids.end());
  }
}

// Crash → backlog empty. Checked whenever a foreground batch returns and,
// after the measured epochs, by the settle loop, so perfbench adds no
// simulated events of its own to the measured window. The backlog is
// rescanned only when a node is declared dead or rejoins; in between a
// sample's copies only grow, so a cursor walks the last scan's samples
// and each is checked until its copies are back. The host time counts as
// verification, not as host_s.
void watch_restore(Rig* rig) {
  if (rig->crashed_at == 0 || rig->restore_time != 0) return;
  const auto h0 = HostClock::now();
  JobRun& job = *rig->jobs[0];
  auto& fleet = job.fleet;
  std::uint64_t declared = 0;
  for (std::uint32_t c = 0; c < fleet.num_clients(); ++c) {
    declared += fleet.instance(c).stats().nodes_declared_dead;
  }
  if (declared != 0) {
    const std::uint32_t dead = fleet.num_declared_dead();
    const std::uint64_t key = (declared << 32) | dead;
    if (key != rig->backlog_key) {
      rig->backlog_key = key;
      rig->backlog = fleet.repair_backlog();
      rig->backlog_restored = 0;
    }
    // The target copy count, as DlfsFleet::repair_backlog defines it.
    const std::uint32_t target = std::min<std::uint32_t>(
        job.spec->config.fault.replication.k, fleet.num_storage() - dead);
    while (rig->backlog_restored < rig->backlog.size() &&
           fleet.live_copies(rig->backlog[rig->backlog_restored]) >= target) {
      ++rig->backlog_restored;
    }
    if (rig->backlog_restored == rig->backlog.size()) {
      rig->restore_time = rig->sim.now() - rig->crashed_at;
    }
  }
  rig->check_s += seconds_since(h0, HostClock::now());
}

// One client's share of one epoch, batch by batch until end_of_epoch.
Task<void> read_epoch(Rig* rig, JobRun* job, std::uint32_t client,
                      std::uint32_t epoch, std::int64_t epoch_span) {
  auto& inst = job->fleet.instance(client);
  const JobSpec& spec = *job->spec;
  Checker check{rig, job, &job->epochs[epoch], {}};
  std::vector<std::byte> arena;
  if (spec.delivery == Delivery::kCopy) {
    arena.resize(spec.batch * spec.sample_bytes);
  }
  std::vector<std::uint32_t> ids;
  Tracer* tr = rig->tracer;
  // Views: the previous batch stays pinned, as if the application were
  // still consuming it, until the next one has returned.
  std::optional<dlfs::core::ViewBatch> pinned;
  auto release_pinned = [&] {
    if (!pinned) return;
    std::int64_t rspan = -1;
    if (tr) {
      rspan = tr->begin("release_views", epoch_span, epoch_span, job->index,
                        client, rig->sim.now());
    }
    inst.release_views(*pinned);
    if (tr) tr->end(rspan, rig->sim.now());
    pinned.reset();
  };
  for (;;) {
    const SimTime t0 = rig->sim.now();
    std::int64_t span = -1;
    bool end = false;
    std::uint64_t bytes = 0;
    std::uint64_t skipped = 0;
    ids.clear();
    if (spec.delivery == Delivery::kViews) {
      if (tr) {
        span = tr->begin("bread_views", epoch_span, epoch_span, job->index,
                         client, t0);
      }
      dlfs::core::ViewBatch vb = co_await inst.bread_views(spec.batch);
      if (tr) tr->end(span, rig->sim.now());
      const auto h0 = HostClock::now();
      for (const auto& s : vb.samples) {
        check.sample(s.sample_id, s.len, s.pieces);
        ids.push_back(s.sample_id);
      }
      rig->check_s += seconds_since(h0, HostClock::now());
      end = vb.end_of_epoch;
      bytes = vb.bytes;
      skipped = vb.samples_skipped;
      release_pinned();
      pinned = std::move(vb);
    } else {
      if (tr) {
        span = tr->begin("bread", epoch_span, epoch_span, job->index, client,
                         t0);
      }
      dlfs::core::Batch b = co_await inst.bread(spec.batch, arena);
      if (tr) tr->end(span, rig->sim.now());
      const auto h0 = HostClock::now();
      for (const auto& s : b.samples) {
        std::span<const std::byte> piece;
        if (std::size_t{s.offset_in_arena} + s.len <= arena.size()) {
          piece = std::span<const std::byte>(arena.data() + s.offset_in_arena,
                                             s.len);
        }
        check.sample(s.sample_id, s.len, std::array{piece});
        ids.push_back(s.sample_id);
      }
      rig->check_s += seconds_since(h0, HostClock::now());
      end = b.end_of_epoch;
      bytes = b.bytes;
      skipped = b.samples_skipped;
    }
    // Skipped samples are never delivered, so the tally counts them as
    // failed operations.
    if (end && ids.empty() && skipped == 0) break;  // the terminal call
    record_batch(rig, job, epoch, rig->sim.now() - t0, bytes, ids);
    if (job->spec->foreground) watch_restore(rig);
    if (end) break;
  }
  release_pinned();
}

// Runs one epoch of `job` on every client and waits for all of them.
Task<void> run_epoch(Rig* rig, JobRun* job, std::uint32_t epoch,
                     std::int64_t epoch_span) {
  const std::uint64_t s = epoch_seed(rig->seed, job->index, epoch);
  std::vector<dlsim::Process> readers;
  for (std::uint32_t c = 0; c < job->fleet.num_clients(); ++c) {
    job->fleet.instance(c).sequence(s);
  }
  for (std::uint32_t c = 0; c < job->fleet.num_clients(); ++c) {
    readers.push_back(rig->sim.spawn(read_epoch(rig, job, c, epoch, epoch_span),
                                     job->spec->name + "-reader"));
  }
  for (const auto& p : readers) co_await p.join();
}

void trace_snapshot(Rig* rig, std::int64_t epoch) {
  if (rig->tracer) {
    rig->tracer->snapshot(epoch, rig->sim.now(), take_snapshot(*rig).counters);
  }
}

Task<void> run_crash_plan(Rig* rig, CrashPlan plan, std::int64_t epoch_span,
                        bool* done) {
  co_await rig->sim.delay(plan.after);
  auto* target = rig->jobs[0]->fleet.target(plan.slot);
  if (target == nullptr) {
    rig->problems.push_back("crash plan names a slot without a target");
    *done = true;
    co_return;
  }
  Tracer* tr = rig->tracer;
  std::int64_t span = -1;
  if (tr) {
    span = tr->begin("crash", epoch_span, epoch_span, 0, 0, rig->sim.now());
  }
  target->crash();
  if (tr) tr->end(span, rig->sim.now());
  rig->crashed_at = rig->sim.now();
  co_await rig->sim.delay(plan.outage);
  if (tr) {
    span = tr->begin("recover", epoch_span, epoch_span, 0, 0, rig->sim.now());
  }
  target->recover();
  if (tr) tr->end(span, rig->sim.now());
  *done = true;
}

void begin_measure(Rig* rig) {
  rig->measuring = true;
  rig->measure_start = rig->sim.now();
  rig->host_measure_start = HostClock::now();
  rig->check_s_at_measure_start = rig->check_s;
  rig->at_measure_start = take_snapshot(*rig);
  rig->fg_cpu_ns_start = foreground_cpu_ns(*rig);
}

void end_measure(Rig* rig) {
  rig->measuring = false;
  rig->measure_end = rig->sim.now();
  rig->host_measure_end = HostClock::now();
  rig->check_s_at_measure_end = rig->check_s;
  rig->at_measure_end = take_snapshot(*rig);
  rig->fg_cpu_ns_end = foreground_cpu_ns(*rig);
}

Task<void> run_foreground(Rig* rig) {
  JobRun* job = rig->jobs[0].get();
  const WorkloadSpec& w = *rig->spec;
  Tracer* tr = rig->tracer;
  bool crash_done = !w.crash.has_value();
  rig->cold_start = rig->sim.now();
  for (std::uint32_t e = 0; e < job->spec->epochs; ++e) {
    trace_snapshot(rig, e);
    if (e == 1) begin_measure(rig);
    std::int64_t span = -1;
    if (tr) {
      span = tr->begin("epoch", rig->round_span, -1, 0, 0, rig->sim.now());
    }
    if (w.crash && w.crash->epoch == e) {
      rig->sim.spawn(run_crash_plan(rig, *w.crash, span, &crash_done),
                     "perfbench-crash");
    }
    co_await run_epoch(rig, job, e, span);
    if (tr) tr->end(span, rig->sim.now());
    if (e == 0) rig->measure_start = rig->sim.now();
  }
  end_measure(rig);
  trace_snapshot(rig, job->spec->epochs);
  job->done_at = rig->sim.now();
  job->host_done = HostClock::now();
  if (!w.crash) co_return;
  // Settle: the crashed node healed and rejoined, repair drained.
  auto& fleet = job->fleet;
  for (;;) {
    // Once drained the backlog stays empty, as nothing crashes again;
    // check_repair confirms it after the round.
    watch_restore(rig);
    bool settled = crash_done && fleet.num_declared_dead() == 0 &&
                   rig->restore_time != 0;
    for (std::uint32_t c = 0; c < fleet.num_clients(); ++c) {
      if (fleet.instance(c).engine().nodes_down() != 0) settled = false;
    }
    if (settled) break;
    if (rig->sim.now() - job->done_at > 60_sec) {
      rig->problems.push_back("crash_repair: deployment never settled");
      break;
    }
    co_await rig->sim.delay(250_us);
  }
}

Task<void> run_background(Rig* rig, JobRun* job) {
  Tracer* tr = rig->tracer;
  for (std::uint32_t e = 0; e < job->spec->epochs; ++e) {
    std::int64_t span = -1;
    if (tr) {
      span = tr->begin("epoch", rig->round_span, -1, job->index, 0,
                       rig->sim.now());
    }
    co_await run_epoch(rig, job, e, span);
    if (tr) tr->end(span, rig->sim.now());
  }
  job->done_at = rig->sim.now();
  job->host_done = HostClock::now();
}

double percentile_us(std::vector<SimDuration> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p of the samples at
  // or below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return dlsim::to_micros(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

// Host-side replay of the run's foreground ids through the public
// directory lookup (SampleDirectory::lookup_id).
double replay_directory_ns(const Rig& rig) {
  const auto& ids = rig.fg_measured_ids;
  if (ids.empty()) return 0.0;
  const auto& dir = rig.jobs[0]->fleet.directory();
  std::uint64_t lookups = 0;
  std::uint64_t sink = 0;
  const auto t0 = HostClock::now();
  double elapsed = 0.0;
  while (elapsed < 0.02) {
    for (const std::uint32_t id : ids) {
      const auto* e = dir.lookup_id(id);
      sink += e != nullptr ? e->len() : 0;
    }
    lookups += ids.size();
    elapsed = seconds_since(t0, HostClock::now());
  }
  if (sink == 0) return 0.0;  // every lookup missed: report nothing timed
  return elapsed * 1e9 / static_cast<double>(lookups);
}

void check_repair(Rig& rig) {
  auto& fleet = rig.jobs[0]->fleet;
  if (!fleet.repair_backlog().empty()) {
    rig.problems.push_back("crash_repair: repair backlog not empty");
  }
  // Replication is restored when every sample has at least 2 live
  // copies. More is expected: a declared-dead node that heals after
  // repair rejoins with its primary shard, so samples it held as primary
  // and that were re-replicated meanwhile count 3.
  std::uint64_t under_replicated = 0;
  for (std::uint32_t id = 0; id < fleet.dataset().num_samples(); ++id) {
    if (fleet.live_copies(id) < 2) ++under_replicated;
  }
  if (under_replicated != 0) {
    rig.problems.push_back("crash_repair: " +
                           std::to_string(under_replicated) +
                           " samples with fewer than 2 live copies");
  }
  std::uint64_t declared = 0, rereplicated = 0;
  for (std::uint32_t c = 0; c < fleet.num_clients(); ++c) {
    const auto st = fleet.instance(c).stats();
    declared += st.nodes_declared_dead;
    rereplicated += st.samples_rereplicated;
  }
  if (declared == 0) {
    rig.problems.push_back("crash_repair: no node declared dead");
  }
  if (rereplicated == 0) {
    rig.problems.push_back("crash_repair: nothing re-replicated");
  }
}

// What the RAM-backed devices hold: the simulated drives' contents, which
// a real deployment keeps on its SSDs, not in memory.
double device_store_mib(Rig& rig) {
  double bytes = 0;
  for (std::uint32_t n = 0; n < rig.cluster.size(); ++n) {
    const auto* ram = dynamic_cast<const dlfs::hw::RamBackingStore*>(
        &rig.cluster.node(n).device().store());
    if (ram != nullptr) {
      bytes += static_cast<double>(ram->resident_pages()) *
               static_cast<double>(ram->page_size());
    }
  }
  return bytes / (1024.0 * 1024.0);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fleet_scale", "shared_disagg",
                                              "warm_reshuffle", "crash_repair"};
  return names;
}

WorkloadSpec make_workload(const std::string& name) {
  if (name == "fleet_scale") return fleet_scale();
  if (name == "shared_disagg") return shared_disagg();
  if (name == "warm_reshuffle") return warm_reshuffle();
  if (name == "crash_repair") return crash_repair();
  throw std::invalid_argument("unknown workload: " + name);
}

JobRun::JobRun(const JobSpec& s, std::uint32_t idx,
               std::uint64_t seed, dlfs::cluster::Cluster& cluster,
               std::shared_ptr<dlfs::core::TenantGovernor> gov)
    : spec(&s),
      index(idx),
      ds(make_dataset(s, idx, seed)),
      pfs(cluster.simulator(), ds),
      fleet(cluster, pfs, ds, job_config(s, std::move(gov)), s.clients,
            s.storage) {
  epochs.resize(s.epochs);
  for (auto& t : epochs) {
    t.count.assign(s.samples, 0);
    t.bad.assign(s.samples, 0);
  }
}

Rig::Rig(const WorkloadSpec& w, std::uint64_t seed_, Tracer* tracer_)
    : spec(&w),
      seed(seed_),
      tracer(tracer_),
      cluster(sim, w.nodes, w.node) {
  sim.seed_rng(seed);
  if (w.governed) gov = std::make_shared<dlfs::core::TenantGovernor>();
  for (std::uint32_t j = 0; j < w.jobs.size(); ++j) {
    jobs.push_back(
        std::make_unique<JobRun>(w.jobs[j], j, seed, cluster, gov));
    for (std::uint16_t s = 0; s < jobs.back()->fleet.num_storage(); ++s) {
      const auto n = storage_node(w.jobs[j], s);
      if (std::find(storage_nodes.begin(), storage_nodes.end(), n) ==
          storage_nodes.end()) {
        storage_nodes.push_back(n);
      }
    }
  }
  for (std::uint32_t j = 0; j < jobs.size(); ++j) {
    mount_order.push_back(
        jobs.at(w.mount_order.empty() ? j : w.mount_order.at(j)).get());
  }
}

std::unique_ptr<Rig> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                            Tracer* tracer) {
  auto rig = std::make_unique<Rig>(spec, seed, tracer);
  if (tracer) {
    for (const auto& job : rig->jobs) {
      tracer->name_job(job->index, job->spec->name);
    }
    rig->round_span = tracer->begin("round", Tracer::kNoParent, -1, 0, 0, 0);
  }
  for (JobRun* job : rig->mount_order) {
    std::int64_t span = -1;
    if (tracer) {
      span = tracer->begin("mount", rig->round_span, -1, job->index, 0,
                           rig->sim.now());
    }
    const SimTime t0 = rig->sim.now();
    job->fleet.mount();
    job->mount_time = rig->sim.now() - t0;
    if (tracer) tracer->end(span, rig->sim.now());
  }
  return rig;
}

RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed,
                      HostClock::time_point round_start, Tracer* tracer) {
  auto rig = set_up(spec, seed, tracer);
  predict_device_base_fault(*rig);
  const auto host_mounted = HostClock::now();

  rig->sim.spawn(run_foreground(rig.get()), "perfbench-foreground");
  for (std::size_t j = 1; j < rig->jobs.size(); ++j) {
    rig->sim.spawn(run_background(rig.get(), rig->jobs[j].get()),
                   "perfbench-background");
  }
  rig->sim.run_watchdog(rig->sim.now() + 3600_sec);
  rig->sim.rethrow_failures();
  if (tracer) tracer->end(rig->round_span, rig->sim.now());

  RoundResult r;
  r.setup_s = seconds_since(round_start, host_mounted);
  auto host_end = host_mounted;
  for (const auto& job : rig->jobs) {
    host_end = std::max(host_end, job->host_done);
  }

  // --- correctness ---------------------------------------------------------
  std::uint64_t unexplained = 0;
  for (const auto& job : rig->jobs) {
    for (const EpochTally& t : job->epochs) {
      for (std::size_t id = 0; id < t.count.size(); ++id) {
        ++r.attempted;
        const bool ok = t.count[id] == 1 && t.bad[id] == 0;
        if (ok) continue;
        ++r.failed;
        if (t.count[id] != 1 || job->predicted_bad[id] == 0) ++unexplained;
      }
    }
  }
  if (unexplained != 0) {
    rig->problems.push_back(std::to_string(unexplained) +
                            " failed deliveries not explained by the "
                            "device_base fault");
  }
  if (spec.crash) check_repair(*rig);
  if (rig->fg_batch_latency.size() < 1000) {
    rig->problems.push_back("fewer than 1000 measured foreground batches");
  }

  // --- end-to-end metrics --------------------------------------------------
  const double window_s =
      dlsim::to_seconds(rig->measure_end - rig->measure_start);
  const double fg_samples = static_cast<double>(rig->fg_measured_samples);
  double mount_ms = 0;
  for (const auto& job : rig->jobs) {
    mount_ms += dlsim::to_millis(job->mount_time);
  }
  const double host_s = seconds_since(host_mounted, host_end) - rig->check_s;
  r.end_to_end = {
      {"samples_per_s", "samples/s", fg_samples / window_s, false},
      {"delivered_bytes_per_s", "B/s",
       static_cast<double>(rig->window_bytes) / window_s, false},
      {"batch_p50_us", "us", percentile_us(rig->fg_batch_latency, 0.50), false},
      {"batch_p99_us", "us", percentile_us(rig->fg_batch_latency, 0.99), false},
      {"cold_epoch_ms", "ms",
       dlsim::to_millis(rig->measure_start - rig->cold_start), false},
      {"mount_ms", "ms", mount_ms, false},
      {"client_cpu_ns_per_sample", "ns",
       (rig->fg_cpu_ns_end - rig->fg_cpu_ns_start) / fg_samples, false},
      {"host_s", "s", host_s, true},
  };
  r.per_layer = per_layer_metrics(*rig, replay_directory_ns(*rig));
  r.problems = std::move(rig->problems);
  r.spans = tracer ? tracer->span_count() : 0;
  r.device_store_mib = device_store_mib(*rig);
  return r;
}

}  // namespace perfbench
