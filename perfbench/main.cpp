// funnelpq benchmark: command-line entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A traced run writes its spans to <name>-seed<n>.csv in the current
// directory.
//
// Prints a human-readable report, then, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1. Exit status
// 0 on success, 2 on bad arguments, 3 when the watchdog trips.
//
// Every workload runs its traffic twice: on the simulated machine (exact,
// deterministic cycles; the paper's instrument) and on native threads (what
// a library user sees). The workload name says which of the two carries
// its weight; the other is a smaller mirror so that every workload reports
// every metric. See README.md for why each workload exists and which layer
// metric should move which end-to-end metric.
#include <malloc.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "phases.hpp"

namespace pb {
namespace {

/// Host seconds after which the watchdog ends any run, whatever deadline
/// is armed: below run.py's 175 s limit, so that a hang is reported with
/// its per-worker progress instead of being killed from outside.
constexpr double kRunBudgetSeconds = 165;

struct Workload {
  std::string_view name;
  Traffic traffic;
  SimConfig sim;
  std::vector<CellSpec> sim_cells;
  u32 native_threads;
  double native_share; // share of --seconds the native phase measures for
  std::vector<CellSpec> native_cells;
};

CellSpec cell(Algorithm a, FunnelProtocol p = FunnelProtocol::kExchange) {
  std::string name(fpq::to_string(a));
  if (p == FunnelProtocol::kAggregate) name += "-agg";
  return CellSpec{name, a, p};
}

constexpr FunnelProtocol kAgg = FunnelProtocol::kAggregate;

/// The cells whose end-to-end metrics every workload reports.
std::vector<CellSpec> sim_core() {
  return {cell(Algorithm::kFunnelTree),   cell(Algorithm::kFunnelTree, kAgg),
          cell(Algorithm::kLinearFunnels), cell(Algorithm::kSimpleLinear),
          cell(Algorithm::kSimpleTree),   cell(Algorithm::kSharded)};
}
std::vector<CellSpec> native_core() {
  return {cell(Algorithm::kFunnelTree), cell(Algorithm::kFunnelTree, kAgg),
          cell(Algorithm::kSimpleLinear), cell(Algorithm::kSharded)};
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  // The paper's §4 workload at Fig. 7's right edge.
  w.push_back({"sim-paper-256", Traffic::kPaper, {256, 32, 4}, sim_core(), 2, 0.5, native_core()});
  // The same workload at 16 processors (Fig. 6 regime), every queue but
  // SkipList, whose simulation hangs on some seeds (ROADMAP item 1; with
  // --seed 606 every processor stops short of its 200 accesses). Its native
  // mirror has two workers like the others: with one, the p99 of a
  // SimpleLinear call (about 170 ns) moved by a fifth between runs.
  std::vector<CellSpec> all;
  for (Algorithm a : fpq::all_algorithms())
    if (a != Algorithm::kSkipList) all.push_back(cell(a));
  all.push_back(cell(Algorithm::kFunnelTree, kAgg));
  w.push_back({"sim-paper-16", Traffic::kPaper, {16, 200, 6}, all, 2, 0.5, native_core()});
  // Library steady state on real cores. SkipList is left out: it hangs or
  // aborts at 3-4 threads under this volume (ROADMAP item 1). Native phases
  // use two workers: with a third, a neighbour's load on a shared 4-vCPU
  // host stalls lock holders often enough to swing the medians by half.
  std::vector<CellSpec> mixed;
  for (Algorithm a : fpq::all_algorithms())
    if (a != Algorithm::kSkipList) mixed.push_back(cell(a));
  mixed.push_back(cell(Algorithm::kFunnelTree, kAgg));
  mixed.push_back(cell(Algorithm::kLinearFunnels, kAgg));
  w.push_back({"native-mixed", Traffic::kMixed, {16, 120, 8}, sim_core(), 2, 1.0, mixed});
  // Batch aggregation: native batch paths, the adapter loop (Sharded) and
  // the loop fallback (SimpleLinear).
  w.push_back({"native-batched", Traffic::kBatched, {16, 24, 3}, sim_core(), 2, 1.0,
               {cell(Algorithm::kFunnelTree), cell(Algorithm::kFunnelTree, kAgg),
                cell(Algorithm::kLinearFunnels), cell(Algorithm::kSharded),
                cell(Algorithm::kSimpleLinear)}});
  return w;
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

template <class R, class F>
double median_of(const std::vector<R>& reps, F f) {
  std::vector<double> v;
  for (const R& r : reps)
    if (r.measured) v.push_back(f(r));
  return median(v);
}

double share(u64 num, u64 den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Totals {
  u64 attempted = 0;
  u64 failed = 0;
  double check_s = 0;
};

void print_check(const char* kind, const std::string& name, const CheckResult& c, u64 refused) {
  if (c.failures() == 0 && refused == 0) return;
  std::printf("CHECK FAILED %s %s: expected=%llu removed=%llu lost=%llu duplicated=%llu "
              "invented=%llu misordered=%llu refused=%llu\n",
              kind, name.c_str(), (unsigned long long)c.expected, (unsigned long long)c.removed,
              (unsigned long long)c.lost, (unsigned long long)c.duplicated,
              (unsigned long long)c.invented, (unsigned long long)c.misordered,
              (unsigned long long)refused);
}

int run(const Args& args) {
  const std::vector<Workload> all = workloads();
  const Workload* wl = nullptr;
  for (const Workload& w : all)
    if (w.name == args.workload) wl = &w;
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; choose one of:", args.workload.c_str());
    for (const Workload& w : all) std::fprintf(stderr, " %s", std::string(w.name).c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  fpq::NativePlatform::set_pin_threads(true);
  Watchdog dog(kRunBudgetSeconds);
  Trace trace(args.trace);
  const u32 run_span = trace.begin(wl->name, 0);

  // Simulated phase first: nothing the native phase allocates can then
  // shift the simulated heap layout.
  const SimConfig& scfg = wl->sim;
  const u32 ssp = trace.begin("sim", run_span);
  const std::vector<SimCellResult> sim =
      run_sim_phase(wl->sim_cells, wl->traffic, args.seed, scfg, trace, dog, ssp);
  trace.end(ssp);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double sim_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  // Hand the simulated phase's freed heap back, so the native phase's
  // peak does not depend on how fragmented the simulator left it.
  malloc_trim(0);

  NativeConfig ncfg;
  ncfg.traffic = wl->traffic;
  ncfg.threads = wl->native_threads;
  ncfg.seed = args.seed;
  const double reps = static_cast<double>(wl->native_cells.size()) *
                     static_cast<double>(ncfg.rounds + ncfg.warmup_rounds);
  ncfg.rep_seconds = args.seconds * wl->native_share / reps;
  const u32 nsp = trace.begin("native", run_span);
  const std::vector<NativeCellResult> native =
      run_native_phase(wl->native_cells, ncfg, trace, dog, nsp);
  trace.end(nsp);

  // The reclamation layer is read from a LockfreeSkiplist cell; workloads
  // without one run it as a probe in the traced run.
  std::vector<NativeCellResult> reclaim_probe;
  ProbeResults probes;
  if (args.trace) {
    bool have = false;
    for (const auto& c : native) have = have || c.reclaim.has_value();
    if (!have) {
      static const std::vector<CellSpec> lf = {cell(Algorithm::kLockfreeSkipList)};
      NativeConfig pc = ncfg;
      pc.rounds = 1;
      pc.warmup_rounds = 0;
      pc.rep_seconds = 0.1;
      const u32 psp = trace.begin("probe", run_span);
      reclaim_probe = run_native_phase(lf, pc, trace, dog, psp);
      trace.end(psp);
    }
    probes = run_probes(ncfg.threads, scfg.procs, args.seed, trace, run_span);
  }
  trace.end(run_span);

  // ---- Totals and the output check.
  Totals tot;
  double setup_s = 0, sim_host_s = 0;
  for (const SimCellResult& r : sim) {
    tot.attempted += r.ops;
    tot.failed += r.check.failures() + r.refused;
    tot.check_s += r.check_s;
    setup_s += r.setup_s;
    sim_host_s += r.host_s;
    print_check("sim", r.cell->name, r.check, r.refused);
  }
  for (const std::vector<NativeCellResult>* group : {&native, &std::as_const(reclaim_probe)}) {
    for (const NativeCellResult& c : *group) {
      for (const NativeRep& r : c.reps) {
        tot.attempted += r.ops;
        tot.failed += r.check.failures() + r.refused;
        tot.check_s += r.check_s;
        print_check("native", c.cell->name, r.check, r.refused);
      }
    }
  }
  for (const NativeCellResult& c : native)
    setup_s += median_of(c.reps, [](const NativeRep& r) { return r.setup_s; });

  // ---- Report.
  std::printf("workload %s seed %llu: sim %u x %u procs x %u, native %u threads, %u rounds "
              "of %.3f s per cell; peak RSS %.1f MB after the simulated phase\n",
              std::string(wl->name).c_str(), (unsigned long long)args.seed, scfg.runs,
              scfg.procs, scfg.ops_per_proc, ncfg.threads, ncfg.rounds, ncfg.rep_seconds,
              sim_rss_mb);
  std::printf("%-18s %12s %12s %10s %10s %10s %9s\n", "sim cell", "cycles/op", "p99 cycles",
              "ins cyc", "del cyc", "wait/op", "host s");
  for (const SimCellResult& r : sim)
    std::printf("%-18s %12.1f %12.0f %10.1f %10.1f %10.1f %9.3f\n", r.cell->name.c_str(),
                r.cycles_per_op(), r.op_p99.value, share(r.ins_cycles, r.ins_calls),
                share(r.del_cycles, r.del_calls), share(r.mem.module_wait_cycles, r.ops),
                r.host_s);
  // Exact simulated totals, compared across runs by run.py --determinism.
  for (const SimCellResult& r : sim)
    std::printf("sim-cycles %s %llu %llu\n", r.cell->name.c_str(),
                (unsigned long long)(r.ins_cycles + r.del_cycles), (unsigned long long)r.ops);
  std::printf("%-18s %10s %17s %10s %10s %10s %10s %12s\n", "native cell", "Mops/s",
              "(rep min-max)", "p99 ns", "ins p50", "del p50", "empty", "samples");
  for (const NativeCellResult& c : native) {
    u64 samples = 0, beyond = 0;
    for (const NativeRep& r : c.reps)
      if (r.measured) {
        samples += r.all_p99.n;
        beyond += r.all_p99.beyond;
      }
    u64 dels = 0, empt = 0;
    double lo = 1e300, hi = 0;
    for (const NativeRep& r : c.reps) {
      dels += r.deletes;
      empt += r.empties;
      if (!r.measured) continue;
      lo = std::min(lo, r.mops);
      hi = std::max(hi, r.mops);
    }
    std::printf("%-18s %10.3f %8.3f-%-8.3f %10.0f %10.0f %10.0f %10.4f %12llu (beyond p99: %llu)\n",
                c.cell->name.c_str(), median_of(c.reps, [](const NativeRep& r) { return r.mops; }),
                lo, hi,
                median_of(c.reps, [](const NativeRep& r) { return r.all_p99.value; }),
                median_of(c.reps, [](const NativeRep& r) { return r.ins_p50.value; }),
                median_of(c.reps, [](const NativeRep& r) { return r.del_p50.value; }),
                share(empt, dels), (unsigned long long)samples, (unsigned long long)beyond);
  }

  std::vector<Metric> metrics;
  auto set = [&metrics](std::string name, double value, const char* unit) {
    metrics.push_back(Metric{std::move(name), value, unit});
  };
  auto sim_cell = [&](const std::string& name) -> const SimCellResult& {
    for (const SimCellResult& r : sim)
      if (r.cell->name == name) return r;
    std::fprintf(stderr, "internal: no sim cell %s\n", name.c_str());
    std::exit(4);
  };
  auto native_cell = [&](const std::string& name) -> const NativeCellResult& {
    for (const NativeCellResult& c : native)
      if (c.cell->name == name) return c;
    std::fprintf(stderr, "internal: no native cell %s\n", name.c_str());
    std::exit(4);
  };
  getrusage(RUSAGE_SELF, &ru);

  if (!args.trace) {
    set("setup_s", setup_s, "s");
    set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    set("ok_op_share", 1.0 - share(tot.failed, tot.attempted), "share");
    set("sim_host_s", sim_host_s, "s");
    for (const char* q : {"FunnelTree", "FunnelTree-agg", "LinearFunnels", "SimpleLinear",
                          "Sharded"})
      set(std::string("sim_cycles_per_op.") + q, sim_cell(q).cycles_per_op(), "cycles");
    for (const char* q : {"FunnelTree", "FunnelTree-agg", "SimpleLinear", "Sharded"})
      set(std::string("native_mops.") + q,
            median_of(native_cell(q).reps, [](const NativeRep& r) { return r.mops; }), "Mops/s");
    for (const char* q : {"FunnelTree", "SimpleLinear", "Sharded"})
      set(std::string("op_p99_ns.") + q,
            median_of(native_cell(q).reps, [](const NativeRep& r) { return r.all_p99.value; }),
            "ns");
  } else {
    for (const char* q : {"FunnelTree", "FunnelTree-agg", "SimpleLinear", "Sharded"}) {
      const NativeCellResult& c = native_cell(q);
      const std::string p = std::string("pq.") + q + ".";
      auto ns = [&](const char* name, Percentile NativeRep::*pct) {
        set(p + name, median_of(c.reps, [pct](const NativeRep& r) { return (r.*pct).value; }),
              "ns");
      };
      ns("insert_ns.p50", &NativeRep::ins_p50);
      ns("insert_ns.p99", &NativeRep::ins_p99);
      ns("delete_ns.p50", &NativeRep::del_p50);
      ns("delete_ns.p99", &NativeRep::del_p99);
      u64 dels = 0, empt = 0;
      for (const NativeRep& r : c.reps) {
        dels += r.deletes;
        empt += r.empties;
      }
      set(p + "empty_share", share(empt, dels), "share");
    }
    for (const char* q : {"FunnelTree", "FunnelTree-agg", "LinearFunnels", "SimpleLinear",
                          "Sharded"}) {
      const SimCellResult& r = sim_cell(q);
      const std::string p = std::string("pq.") + q + ".";
      set(p + "insert_cycles", share(r.ins_cycles, r.ins_calls), "cycles");
      set(p + "delete_cycles", share(r.del_cycles, r.del_calls), "cycles");
      set(p + "op_cycles.p99", r.op_p99.value, "cycles");
    }
    set("pq.SimpleTree.cycles_per_op", sim_cell("SimpleTree").cycles_per_op(), "cycles");
    for (const CellSpec& c : sim_core()) {
      const SimCellResult& r = sim_cell(c.name);
      const std::string p = "sim." + c.name + ".";
      set(p + "accesses_per_op", share(r.accesses, r.ops), "count");
      set(p + "miss_share", share(r.mem.misses, r.mem.hits + r.mem.misses), "share");
      set(p + "module_wait_per_op", share(r.mem.module_wait_cycles, r.ops), "cycles");
      set(p + "network_per_op", share(r.mem.network_cycles, r.ops), "cycles");
      set(p + "invalidations_per_op", share(r.mem.invalidations, r.ops), "count");
      set(p + "host_ns_per_access", r.host_s * 1e9 / static_cast<double>(r.accesses), "ns");
    }
    set("funnel.counter.pair_ns.exchange", probes.counter_pair_ns[0], "ns");
    set("funnel.counter.pair_ns.agg", probes.counter_pair_ns[1], "ns");
    set("funnel.stack.pair_ns.exchange", probes.stack_pair_ns[0], "ns");
    set("funnel.stack.pair_ns.agg", probes.stack_pair_ns[1], "ns");
    set("funnel.counter.sim_cycles.exchange", probes.counter_sim_cycles[0], "cycles");
    set("funnel.counter.sim_cycles.agg", probes.counter_sim_cycles[1], "cycles");
    set("funnel.counter.folded_joins_per_op", probes.folded_joins_per_op, "count");
    set("sync.mcs.pair_ns", probes.mcs_pair_ns, "ns");
    set("sync.ttas.pair_ns", probes.ttas_pair_ns, "ns");
    set("sync.mcs.sim_cycles", probes.mcs_sim_cycles, "cycles");
    set("container.bin.pair_ns", probes.bin_pair_ns, "ns");
    set("container.bin.sim_cycles", probes.bin_sim_cycles, "cycles");
    const NativeCellResult* lf = nullptr;
    for (const std::vector<NativeCellResult>* group : {&native, &std::as_const(reclaim_probe)})
      for (const NativeCellResult& c : *group)
        if (c.reclaim) lf = &c;
    const fpq::reclaim::DomainStats ds = lf ? *lf->reclaim : fpq::reclaim::DomainStats{};
    set("reclaim.retired_per_op", share(ds.retired, lf ? lf->reclaim_ops : 0), "count");
    set("reclaim.reclaimed_share", share(ds.reclaimed, ds.retired), "share");
    set("reclaim.in_limbo_end", static_cast<double>(ds.in_limbo), "count");
    const std::vector<fpq::ShardStats>& shards = native_cell("Sharded").shards;
    u64 delegated = 0, ops_max = 0, ops_sum = 0;
    for (const fpq::ShardStats& s : shards) {
      delegated += s.delegated ? 1 : 0;
      ops_max = std::max(ops_max, s.ops);
      ops_sum += s.ops;
    }
    set("shard.delegated_shards", static_cast<double>(delegated), "count");
    set("shard.ops_max_over_mean",
          ops_sum == 0 ? 0 : static_cast<double>(ops_max) * static_cast<double>(shards.size()) /
                                 static_cast<double>(ops_sum),
          "ratio");
    set("shard.rank_error.mean", probes.rank_error_mean, "count");
    set("shard.rank_error.p99", probes.rank_error_p99, "count");
    set("platform.clock_read_ns", probes.clock_read_ns, "ns");
    set("platform.run_fork_join_us", probes.run_fork_join_us, "us");
    set("verify.check_s", tot.check_s, "s");
    // Tracing overhead: traced against untraced rounds of the same cells.
    std::vector<double> overhead;
    for (const NativeCellResult& c : native) {
      std::vector<double> on, off;
      for (const NativeRep& r : c.reps)
        if (r.measured) (r.traced ? on : off).push_back(r.mops);
      if (!on.empty() && !off.empty()) overhead.push_back(1.0 - median(on) / median(off));
    }
    set("trace.overhead_share", median(overhead), "share");
    const std::string out = args.workload + "-seed" + std::to_string(args.seed) + ".csv";
    if (!trace.write_csv(out)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 4;
    }
    std::printf("trace: %llu call spans recorded, %llu overwritten in full rings, written to "
                "%s\n",
                (unsigned long long)trace.call_spans(), (unsigned long long)trace.dropped_spans(),
                out.c_str());
  }

  // ---- Result line.
  for (const Metric& x : metrics)
    std::printf("%-44s %16.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  std::string json = "{\"correct\": ";
  json += tot.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tot.attempted);
  json += ", \"failed\": " + std::to_string(tot.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& x = metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x.value);
    json += (i ? ", \"" : "\"") + x.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            x.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

} // namespace
} // namespace pb

int main(int argc, char** argv) {
  // Run with address-space randomisation off (re-executing once to get
  // there): the simulated cycles of the queues that allocate nodes
  // (LockfreeSkiplist, Sharded) depend on host addresses, so under ASLR
  // they would differ between two runs of one seed.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1)
    execv("/proc/self/exe", argv);
  // A fixed mmap threshold: glibc otherwise raises it when the first
  // engine's fiber stacks are freed, and whether later stacks then stay
  // resident depends on heap fragmentation — peak RSS would vary by seed.
  mallopt(M_MMAP_THRESHOLD, 64 * 1024);
  pb::Args args;
  if (!pb::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return pb::run(args);
}
