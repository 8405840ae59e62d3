// Per-layer counters, read from outside through the public getters, and
// the per-layer metrics derived from two snapshots (the start and the end
// of the measured epochs).

#include <algorithm>

#include "bench.hpp"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double Snapshot::get(const std::string& name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0.0;
}

double foreground_cpu_ns(Rig& rig) {
  auto& fleet = rig.jobs[0]->fleet;
  double ns = 0;
  for (std::uint32_t c = 0; c < fleet.num_clients(); ++c) {
    auto& inst = fleet.instance(c);
    ns += static_cast<double>(inst.io_core().busy_ns()) +
          static_cast<double>(inst.engine().copy_busy_ns());
  }
  return ns;
}

Snapshot take_snapshot(Rig& rig) {
  Snapshot s;
  s.sim_at = rig.sim.now();
  auto& c = s.counters;
  auto add = [&c](const char* name, double v) { c.emplace_back(name, v); };
  add("sim.events", static_cast<double>(rig.sim.events_processed()));
  add("frontend.batches", static_cast<double>(rig.batches));

  double lookup_ns = 0, delivered = 0, delivered_bytes = 0, skipped = 0;
  double dir_local = 0, dir_cache = 0, dir_remote = 0, dir_evict = 0,
         dir_stale = 0, dir_bytes = 0, clients = 0;
  double cache_hits = 0, cache_misses = 0;
  double peer_local = 0, peer_remote = 0, peer_misses = 0, peer_bytes = 0;
  double pf_issued = 0, pf_resident = 0, pf_stalled = 0, pf_stall_ns = 0,
         pf_dropped = 0, pf_hwm = 0;
  double posted = 0, completions = 0, retries = 0, io_busy = 0,
         copy_busy = 0, copied = 0, zero_copy = 0, handoffs = 0;
  double fg_defer = 0, bg_defer = 0, fg_admitted = 0, bg_admitted = 0;
  double declared = 0, rereplicated = 0, repair_bytes = 0, throttles = 0;
  double timeouts = 0, lost = 0, reconnects = 0, replays = 0, poller = 0;
  double pool_peak = 0;
  for (const auto& job : rig.jobs) {
    auto& fleet = job->fleet;
    const bool fg = job->spec->foreground;
    for (std::uint32_t i = 0; i < fleet.num_clients(); ++i) {
      auto& inst = fleet.instance(i);
      const auto st = inst.stats();
      lookup_ns += static_cast<double>(st.lookup_time_total);
      delivered += static_cast<double>(st.samples_delivered);
      delivered_bytes += static_cast<double>(st.bytes_delivered);
      skipped += static_cast<double>(st.samples_skipped);
      dir_local += static_cast<double>(st.directory.local_hits);
      dir_cache += static_cast<double>(st.directory.cache_hits);
      dir_remote += static_cast<double>(st.directory.remote_lookups);
      dir_evict += static_cast<double>(st.directory.cache_evictions);
      dir_stale += static_cast<double>(st.directory.stale_invalidations);
      dir_bytes += static_cast<double>(st.directory_bytes);
      clients += 1;
      cache_hits += static_cast<double>(inst.cache().hits());
      cache_misses += static_cast<double>(inst.cache().misses());
      peer_local += static_cast<double>(st.peer_hits_local);
      peer_remote += static_cast<double>(st.peer_hits_remote);
      peer_misses += static_cast<double>(st.peer_misses);
      peer_bytes += static_cast<double>(st.peer_bytes);
      pf_issued += static_cast<double>(st.prefetch.units_issued);
      pf_resident += static_cast<double>(st.prefetch.units_resident_at_pick);
      pf_stalled += static_cast<double>(st.prefetch.units_stalled);
      pf_stall_ns += static_cast<double>(st.prefetch.stall_ns);
      pf_dropped += static_cast<double>(st.prefetch.units_dropped);
      pf_hwm = std::max(pf_hwm, static_cast<double>(st.prefetch.in_flight_hwm));
      auto& eng = inst.engine();
      posted += static_cast<double>(eng.requests_posted());
      completions += static_cast<double>(eng.completions_harvested());
      retries += static_cast<double>(eng.retries());
      io_busy += static_cast<double>(inst.io_core().busy_ns());
      copy_busy += static_cast<double>(eng.copy_busy_ns());
      copied += static_cast<double>(st.bytes_copied);
      zero_copy += static_cast<double>(st.bytes_zero_copy);
      handoffs += static_cast<double>(st.cross_core_handoffs);
      (fg ? fg_defer : bg_defer) += static_cast<double>(st.qos_deferrals);
      declared += static_cast<double>(st.nodes_declared_dead);
      rereplicated += static_cast<double>(st.samples_rereplicated);
      repair_bytes += static_cast<double>(st.repair_bytes);
      throttles += static_cast<double>(st.repair_throttles);
      const auto ts = eng.transport_stats();
      timeouts += static_cast<double>(ts.timeouts);
      lost += static_cast<double>(ts.connections_lost);
      reconnects += static_cast<double>(ts.reconnects);
      replays += static_cast<double>(ts.replays);
      pool_peak = std::max(
          pool_peak, static_cast<double>(inst.pool().peak_used_chunks()));
    }
    if (const auto& tenant = fleet.tenant_handle()) {
      (fg ? fg_admitted : bg_admitted) +=
          static_cast<double>(tenant->stats().bytes_admitted);
    }
    for (std::uint32_t slot = 0; slot < fleet.num_storage(); ++slot) {
      if (auto* t = fleet.target(slot)) {
        poller += static_cast<double>(t->poller_core().busy_ns());
      }
    }
  }
  add("frontend.lookup_ns", lookup_ns);
  add("frontend.samples_delivered", delivered);
  add("frontend.bytes_delivered", delivered_bytes);
  add("frontend.samples_skipped", skipped);
  add("directory.local_hits", dir_local);
  add("directory.cache_hits", dir_cache);
  add("directory.remote_lookups", dir_remote);
  add("directory.cache_evictions", dir_evict);
  add("directory.stale_invalidations", dir_stale);
  add("directory.bytes", dir_bytes);
  add("directory.clients", clients);
  add("cache.hits", cache_hits);
  add("cache.misses", cache_misses);
  add("peer.hits_local", peer_local);
  add("peer.hits_remote", peer_remote);
  add("peer.misses", peer_misses);
  add("peer.bytes", peer_bytes);
  add("prefetch.units_issued", pf_issued);
  add("prefetch.units_resident_at_pick", pf_resident);
  add("prefetch.units_stalled", pf_stalled);
  add("prefetch.stall_ns", pf_stall_ns);
  add("prefetch.units_dropped", pf_dropped);
  add("prefetch.window_hwm", pf_hwm);
  add("engine.requests_posted", posted);
  add("engine.completions", completions);
  add("engine.retries", retries);
  add("engine.io_core_busy_ns", io_busy);
  add("engine.copy_busy_ns", copy_busy);
  add("engine.bytes_copied", copied);
  add("engine.bytes_zero_copy", zero_copy);
  add("engine.cross_core_handoffs", handoffs);
  add("qos.fg_deferrals", fg_defer);
  add("qos.bg_deferrals", bg_defer);
  add("qos.fg_bytes_admitted", fg_admitted);
  add("qos.bg_bytes_admitted", bg_admitted);
  add("repair.nodes_declared_dead", declared);
  add("repair.samples_rereplicated", rereplicated);
  add("repair.bytes", repair_bytes);
  add("repair.throttles", throttles);
  add("nvmf.timeouts", timeouts);
  add("nvmf.connections_lost", lost);
  add("nvmf.reconnects", reconnects);
  add("nvmf.replays", replays);
  add("nvmf.poller_busy_ns", poller);

  double commands = 0, bytes_read = 0, bytes_written = 0;
  const double now = static_cast<double>(rig.sim.now());
  for (const auto nid : rig.storage_nodes) {
    auto& dev = rig.cluster.node(nid).device();
    commands += static_cast<double>(dev.commands_completed());
    bytes_read += static_cast<double>(dev.bytes_read());
    bytes_written += static_cast<double>(dev.bytes_written());
    // Devices keep their stats since creation at t = 0, so busy time is
    // utilization x elapsed; window utilization follows from two readings.
    s.pipe_busy_ns.push_back(dev.pipe_utilization() * now);
  }
  add("nvme.commands", commands);
  add("nvme.bytes_read", bytes_read);
  add("nvme.bytes_written", bytes_written);

  auto& fabric = rig.cluster.fabric();
  double fabric_bytes = 0;
  for (std::uint32_t n = 0; n < fabric.num_nodes(); ++n) {
    fabric_bytes += static_cast<double>(fabric.bytes_sent(n));
    s.nic_bytes.push_back(static_cast<double>(fabric.bytes_sent(n)) +
                          static_cast<double>(fabric.bytes_received(n)));
  }
  add("fabric.bytes", fabric_bytes);
  add("fabric.messages", static_cast<double>(fabric.messages()));
  add("fabric.messages_dropped",
      static_cast<double>(fabric.messages_dropped()));
  add("pool.peak_used_chunks", pool_peak);
  return s;
}

std::vector<Metric> per_layer_metrics(const Rig& rig,
                                      double host_ns_per_lookup) {
  const Snapshot& a = rig.at_measure_start;
  const Snapshot& b = rig.at_measure_end;
  auto d = [&](const char* name) { return b.get(name) - a.get(name); };
  const double window_ns = static_cast<double>(b.sim_at - a.sim_at);
  const double host_window_s =
      std::chrono::duration<double>(rig.host_measure_end -
                                    rig.host_measure_start)
          .count() -
      (rig.check_s_at_measure_end - rig.check_s_at_measure_start);

  double max_util = 0;
  for (std::size_t i = 0; i < b.pipe_busy_ns.size(); ++i) {
    max_util = std::max(
        max_util, ratio(b.pipe_busy_ns[i] - a.pipe_busy_ns[i], window_ns));
  }
  double max_nic = 0;
  for (std::size_t i = 0; i < b.nic_bytes.size(); ++i) {
    max_nic = std::max(max_nic, b.nic_bytes[i] - a.nic_bytes[i]);
  }
  const double res = d("prefetch.units_resident_at_pick");
  const double peer_hits = d("peer.hits_local") + d("peer.hits_remote");

  return {
      {"sim.events", "count", d("sim.events"), false},
      {"sim.host_ns_per_event", "ns",
       ratio(host_window_s * 1e9, d("sim.events")), true},
      {"frontend.batches", "count", d("frontend.batches"), false},
      {"frontend.lookup_ns_per_sample", "ns",
       ratio(d("frontend.lookup_ns"), d("frontend.samples_delivered")), false},
      {"frontend.samples_skipped", "count", d("frontend.samples_skipped"),
       false},
      {"directory.local_hits", "count", d("directory.local_hits"), false},
      {"directory.cache_hits", "count", d("directory.cache_hits"), false},
      {"directory.remote_lookups", "count", d("directory.remote_lookups"),
       false},
      {"directory.cache_evictions", "count", d("directory.cache_evictions"),
       false},
      {"directory.stale_invalidations", "count",
       d("directory.stale_invalidations"), false},
      {"directory.bytes_per_client", "B",
       ratio(b.get("directory.bytes"), b.get("directory.clients")), false},
      {"directory.host_ns_per_lookup", "ns", host_ns_per_lookup, true},
      {"cache.hits", "count", d("cache.hits"), false},
      {"cache.misses", "count", d("cache.misses"), false},
      {"cache.hit_ratio", "ratio",
       ratio(d("cache.hits"), d("cache.hits") + d("cache.misses")), false},
      {"peer.hits_local", "count", d("peer.hits_local"), false},
      {"peer.hits_remote", "count", d("peer.hits_remote"), false},
      {"peer.misses", "count", d("peer.misses"), false},
      {"peer.bytes", "B", d("peer.bytes"), false},
      {"peer.hit_ratio", "ratio",
       ratio(peer_hits, peer_hits + d("peer.misses")), false},
      {"prefetch.units_issued", "count", d("prefetch.units_issued"), false},
      {"prefetch.resident_at_pick_ratio", "ratio",
       ratio(res, res + d("prefetch.units_stalled")), false},
      {"prefetch.stall_us", "us", d("prefetch.stall_ns") * 1e-3, false},
      {"prefetch.units_dropped", "count", d("prefetch.units_dropped"), false},
      {"prefetch.window_hwm", "count", b.get("prefetch.window_hwm"), false},
      {"engine.requests_posted", "count", d("engine.requests_posted"), false},
      {"engine.completions", "count", d("engine.completions"), false},
      {"engine.retries", "count", d("engine.retries"), false},
      {"engine.io_core_busy_us", "us", d("engine.io_core_busy_ns") * 1e-3,
       false},
      {"engine.copy_busy_us", "us", d("engine.copy_busy_ns") * 1e-3, false},
      {"engine.bytes_copied", "B", d("engine.bytes_copied"), false},
      {"engine.bytes_zero_copy", "B", d("engine.bytes_zero_copy"), false},
      {"engine.cross_core_handoffs", "count", d("engine.cross_core_handoffs"),
       false},
      {"qos.fg_deferrals", "count", d("qos.fg_deferrals"), false},
      {"qos.bg_deferrals", "count", d("qos.bg_deferrals"), false},
      {"qos.fg_bytes_admitted", "B", d("qos.fg_bytes_admitted"), false},
      {"qos.bg_bytes_admitted", "B", d("qos.bg_bytes_admitted"), false},
      {"repair.nodes_declared_dead", "count", d("repair.nodes_declared_dead"),
       false},
      {"repair.samples_rereplicated", "count",
       d("repair.samples_rereplicated"), false},
      {"repair.bytes", "B", d("repair.bytes"), false},
      {"repair.throttles", "count", d("repair.throttles"), false},
      {"repair.restore_ms", "ms", static_cast<double>(rig.restore_time) * 1e-6,
       false},
      {"nvmf.timeouts", "count", d("nvmf.timeouts"), false},
      {"nvmf.connections_lost", "count", d("nvmf.connections_lost"), false},
      {"nvmf.reconnects", "count", d("nvmf.reconnects"), false},
      {"nvmf.replays", "count", d("nvmf.replays"), false},
      {"nvmf.poller_busy_us", "us", d("nvmf.poller_busy_ns") * 1e-3, false},
      {"nvme.commands", "count", d("nvme.commands"), false},
      {"nvme.bytes_read", "B", d("nvme.bytes_read"), false},
      {"nvme.bytes_written", "B", d("nvme.bytes_written"), false},
      {"nvme.read_amplification", "ratio",
       ratio(d("nvme.bytes_read"), d("frontend.bytes_delivered")), false},
      {"nvme.max_pipe_utilization", "ratio", max_util, false},
      {"fabric.bytes", "B", d("fabric.bytes"), false},
      {"fabric.messages", "count", d("fabric.messages"), false},
      {"fabric.messages_dropped", "count", d("fabric.messages_dropped"),
       false},
      {"fabric.max_nic_bytes", "B", max_nic, false},
      {"pool.peak_used_chunks", "count", b.get("pool.peak_used_chunks"),
       false},
  };
}

}  // namespace perfbench
