// Simulated phase: each cell runs once on a fresh sim::Engine. Simulated
// cycles are exact and deterministic in the seed; nothing recorded here
// (samples, spans, progress) is a Shared access, so tracing leaves every
// simulated cycle unchanged.
#include "phases.hpp"
#include "sim/engine.hpp"

namespace pb {
namespace {

using fpq::SimPlatform;
using fpq::sim::Engine;

/// Host-time deadline of one simulated cell before the watchdog trips;
/// the slowest simulation (FunnelTree-agg at 256 processors) takes ~2 s.
constexpr double kSimDeadlineSeconds = 60;
/// Set-up repetitions per simulation; the median counts towards setup_s.
constexpr u32 kSetups = 3;

struct ProcState {
  std::vector<u64> cycles; // per call
  std::vector<Entry> removed;
  std::vector<u64> refused_seq;
  u64 ins_calls = 0, del_calls = 0, ins_cycles = 0, del_cycles = 0;
  u64 ops = 0, refused = 0;
};

u64 total_accesses(const Engine& e) {
  u64 n = 0;
  for (const auto& p : e.proc_stats()) n += p.accesses;
  return n;
}

fpq::sim::MemStats diff(const fpq::sim::MemStats& a, const fpq::sim::MemStats& b) {
  fpq::sim::MemStats d;
  d.reads = a.reads - b.reads;
  d.writes = a.writes - b.writes;
  d.rmws = a.rmws - b.rmws;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.invalidations = a.invalidations - b.invalidations;
  d.module_wait_cycles = a.module_wait_cycles - b.module_wait_cycles;
  d.network_cycles = a.network_cycles - b.network_cycles;
  return d;
}

using SimQueue = fpq::IPriorityQueue<SimPlatform>;

void sim_body(SimQueue& q, Traffic traffic, const Script& s, u32 ops, ProcId id,
              ProcState& st, Progress& prog, SpanRing* spans, u32 parent, u32 ins_name,
              u32 del_name) {
  auto record = [&](Cycles t0, Cycles t1, bool insert) {
    const u64 dt = t1 - t0;
    st.cycles.push_back(dt);
    if (insert) {
      ++st.ins_calls;
      st.ins_cycles += dt;
    } else {
      ++st.del_calls;
      st.del_cycles += dt;
    }
    if (spans != nullptr)
      spans->push(Span{t0, t1, parent, insert ? ins_name : del_name, id, Clock::kSimCycles});
  };
  for (u32 i = 0; i < ops; ++i) {
    if (traffic == Traffic::kPaper) {
      SimPlatform::delay(kLocalWork);
      const Cycles t0 = SimPlatform::now();
      if (s.is_insert[i]) {
        if (!q.insert(s.prio[i], tag(id, i))) {
          ++st.refused;
          st.refused_seq.push_back(i);
        }
        record(t0, SimPlatform::now(), true);
      } else {
        const auto e = q.delete_min();
        record(t0, SimPlatform::now(), false);
        if (e) st.removed.push_back(*e);
      }
      ++st.ops;
    } else if (traffic == Traffic::kMixed) {
      const Cycles t0 = SimPlatform::now();
      if (!q.insert(s.prio[i], tag(id, i))) {
        ++st.refused;
        st.refused_seq.push_back(i);
      }
      const Cycles t1 = SimPlatform::now();
      record(t0, t1, true);
      const auto e = q.delete_min();
      record(t1, SimPlatform::now(), false);
      if (e) st.removed.push_back(*e);
      st.ops += 2;
    } else {
      Entry batch[kBatch];
      Entry out[kBatch];
      for (u32 j = 0; j < kBatch; ++j) {
        const u64 seq = u64{i} * kBatch + j;
        batch[j] = Entry{s.prio[seq], tag(id, seq)};
      }
      const Cycles t0 = SimPlatform::now();
      st.refused += kBatch - q.insert_batch(std::span<const Entry>(batch, kBatch));
      const Cycles t1 = SimPlatform::now();
      record(t0, t1, true);
      const u32 got = q.delete_min_batch(std::span<Entry>(out, kBatch));
      record(t1, SimPlatform::now(), false);
      st.removed.insert(st.removed.end(), out, out + got);
      st.ops += 2 * kBatch;
    }
    prog.ops.store(st.ops, std::memory_order_relaxed);
  }
}

u64 script_len(Traffic t, u32 ops) {
  return t == Traffic::kBatched ? u64{ops} * kBatch : ops;
}

/// One simulation of one cell. Appends its per-call cycle samples and its
/// set-up times to the caller's pools.
SimCellResult run_cell(const CellSpec& cell, Traffic traffic, u64 seed, const SimConfig& cfg,
                       const SimFactory& make, const std::vector<Script>& scripts,
                       const Script& prefill, Trace& trace, Watchdog& dog, u32 parent,
                       std::vector<u64>& cycles, std::vector<double>& setups) {
  SimCellResult r;
  r.cell = &cell;
  const u32 n = cfg.procs;
  const u32 cell_span = trace.begin(cell.name, parent);

  // Set-up (engine + queue construction + prefill), repeated; the last
  // instance is the one measured.
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SimQueue> q;
  u32 sp = trace.begin("setup", cell_span);
  for (u32 k = 0; k < kSetups; ++k) {
    q.reset();
    engine.reset();
    const u64 s0 = host_ns();
    engine = std::make_unique<Engine>(n, fpq::sim::MachineParams{}, seed);
    q = make(cell, n, traffic, seed);
    if (traffic != Traffic::kPaper) {
      u64 refused = 0;
      engine->run([&](ProcId id) {
        if (id != 0) return;
        for (u32 i = 0; i < kPrefill; ++i)
          if (!q->insert(prefill.prio[i], tag(n, i))) ++refused;
      });
      r.refused = refused;
    }
    setups.push_back(static_cast<double>(host_ns() - s0) * 1e-9);
  }
  trace.end(sp);

  std::vector<ProcState> st(n);
  for (ProcState& p : st) p.cycles.reserve(2 * cfg.ops_per_proc);
  std::vector<Progress> prog(n);
  // Allocated in untraced runs too, and kept to the end of the run either
  // way, so that tracing leaves the address-space layout unchanged: the
  // simulated cycles of LockfreeSkiplist and Sharded depend on it.
  SpanRing ring(std::size_t{n} * cfg.ops_per_proc * 2);
  SpanRing* const spans = trace.on() ? &ring : nullptr;
  const u32 ins_name =
      trace.name_id(traffic == Traffic::kBatched ? "pq:insert_batch" : "pq:insert");
  const u32 del_name =
      trace.name_id(traffic == Traffic::kBatched ? "pq:delete_min_batch" : "pq:delete_min");

  sp = trace.begin("timed", cell_span);
  const u32 run_span = trace.begin("sim:Engine::run", sp);
  const fpq::sim::MemStats mem0 = engine->mem_stats();
  const u64 acc0 = total_accesses(*engine);
  dog.arm(cell.name + " simulation", kSimDeadlineSeconds, prog.data(), n);
  const u64 h0 = host_ns();
  engine->run([&](ProcId id) {
    sim_body(*q, traffic, scripts[id], cfg.ops_per_proc, id, st[id], prog[id], spans,
             run_span, ins_name, del_name);
  });
  r.host_s = static_cast<double>(host_ns() - h0) * 1e-9;
  dog.disarm();
  r.mem = diff(engine->mem_stats(), mem0);
  r.accesses = total_accesses(*engine) - acc0;
  trace.end(run_span);
  trace.end(sp);

  for (const ProcState& p : st) {
    r.ops += p.ops;
    r.ins_calls += p.ins_calls;
    r.del_calls += p.del_calls;
    r.ins_cycles += p.ins_cycles;
    r.del_cycles += p.del_cycles;
    r.refused += p.refused;
    cycles.insert(cycles.end(), p.cycles.begin(), p.cycles.end());
  }

  // Drain on processor 0, then check the items.
  sp = trace.begin("check", cell_span);
  const u32 vsp = trace.begin("verify:check", sp);
  const u64 c0 = host_ns();
  std::vector<Entry> drained;
  Progress drain_prog;
  dog.arm(cell.name + " drain", kSimDeadlineSeconds, &drain_prog, 1);
  engine->run([&](ProcId id) {
    if (id != 0) return;
    while (auto e = q->delete_min()) {
      drained.push_back(*e);
      drain_prog.ops.store(drained.size(), std::memory_order_relaxed);
    }
  });
  dog.disarm();
  OutputCheck chk(n);
  if (traffic != Traffic::kPaper)
    for (u32 i = 0; i < kPrefill; ++i) chk.expect(n, i, prefill.prio[i]);
  for (u32 id = 0; id < n; ++id)
    for_each_inserted(traffic, scripts[id], cfg.ops_per_proc, st[id].refused_seq,
                      [&](u64 seq, Prio p) { chk.expect(id, seq, p); });
  for (const ProcState& p : st)
    for (const Entry& e : p.removed) chk.removed(e);
  const bool exact = cell_is_exact(cell);
  for (const Entry& e : drained) chk.drained(e, exact);
  r.check = chk.finish();
  r.check_s = static_cast<double>(host_ns() - c0) * 1e-9;
  trace.end(vsp);
  trace.end(sp);
  trace.end(cell_span);
  trace.keep(std::move(ring));
  return r;
}

void accumulate(SimCellResult& into, const SimCellResult& r) {
  into.cell = r.cell;
  into.host_s += r.host_s;
  into.check_s += r.check_s;
  into.ops += r.ops;
  into.ins_calls += r.ins_calls;
  into.del_calls += r.del_calls;
  into.ins_cycles += r.ins_cycles;
  into.del_cycles += r.del_cycles;
  into.refused += r.refused;
  into.accesses += r.accesses;
  into.mem.reads += r.mem.reads;
  into.mem.writes += r.mem.writes;
  into.mem.rmws += r.mem.rmws;
  into.mem.hits += r.mem.hits;
  into.mem.misses += r.mem.misses;
  into.mem.invalidations += r.mem.invalidations;
  into.mem.module_wait_cycles += r.mem.module_wait_cycles;
  into.mem.network_cycles += r.mem.network_cycles;
  into.check.expected += r.check.expected;
  into.check.removed += r.check.removed;
  into.check.lost += r.check.lost;
  into.check.duplicated += r.check.duplicated;
  into.check.invented += r.check.invented;
  into.check.misordered += r.check.misordered;
}

} // namespace

std::vector<SimCellResult> run_sim_phase(const std::vector<CellSpec>& cells, Traffic traffic,
                                         u64 seed, const SimConfig& cfg, Trace& trace,
                                         Watchdog& dog, u32 parent_span, const SimFactory& make) {
  std::vector<SimCellResult> out(cells.size());
  std::vector<std::vector<u64>> cycles(cells.size());
  std::vector<std::vector<double>> setups(cells.size());
  for (u32 k = 0; k < cfg.runs; ++k) {
    // Independent simulations with distinct derived seeds: one seed fixes
    // a funnel's collision pattern for the whole run, so averaging over
    // several steadies the figures more than a longer run would.
    const u64 run_seed = seed * cfg.runs + k;
    const u64 len = script_len(traffic, cfg.ops_per_proc);
    std::vector<Script> scripts;
    for (u32 id = 0; id < cfg.procs; ++id)
      scripts.push_back(make_script(run_seed, id, traffic, len));
    const Script prefill = make_script(run_seed, cfg.procs, Traffic::kMixed, kPrefill);
    for (std::size_t c = 0; c < cells.size(); ++c)
      accumulate(out[c], run_cell(cells[c], traffic, run_seed, cfg, make, scripts, prefill, trace,
                                  dog, parent_span, cycles[c], setups[c]));
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out[c].op_p99 = exact_percentile(cycles[c].begin(), cycles[c].end(), 0.99);
    out[c].setup_s = median(setups[c]);
  }
  return out;
}

} // namespace pb
