// Native phase: every cell runs in rounds (one repetition of each cell per
// round, so slow drift on a shared machine hits every cell alike), each
// repetition on a fresh queue. Workers time every call with one clock read
// between consecutive calls and keep the raw samples.
#include <string>

#include "phases.hpp"

namespace pb {
namespace {

using fpq::NativePlatform;

/// Per-repetition caps per worker; a worker that reaches one stops early.
constexpr u64 kCallCap = 1u << 19;     // calls (paper, mixed)
constexpr u64 kBatchRounds = 1u << 15; // insert_batch + delete_min_batch rounds
/// Call spans kept per worker for the trace output (the newest ones).
constexpr std::size_t kRingSpans = 4096;
/// Grace added to each repetition's deadline before the watchdog trips.
constexpr double kGraceSeconds = 30;

/// Fixed-capacity buffer, written in full once at construction so that the
/// benchmark's own memory is the same in every run (peak RSS then moves
/// only with the library's).
template <class T>
struct FixedBuf {
  std::vector<T> v;
  u64 n = 0;
  explicit FixedBuf(u64 cap) : v(cap, T{}) {}
  void push(T x) { v[n++] = x; }
  T* begin() { return v.data(); }
  T* end() { return v.data() + n; }
};

/// One worker thread's record of a repetition; reused by every cell.
struct alignas(64) Worker {
  FixedBuf<u32> ins_ns{kCallCap}, del_ns{kCallCap};
  FixedBuf<u64> removed{kCallCap}; // fpq::pack_entry words
  std::vector<u64> refused_seq;    // point inserts the queue refused
  u64 ops = 0, deletes = 0, empties = 0, refused = 0, steps = 0;
  u64 start = 0, end = 0;

  void reset() {
    ins_ns.n = del_ns.n = removed.n = 0;
    refused_seq.clear();
    ops = deletes = empties = refused = steps = 0;
  }
};

struct SpanNames {
  u32 insert = 0, del = 0;
};

u64 script_len(Traffic t) {
  switch (t) {
    case Traffic::kPaper: return kCallCap;
    case Traffic::kMixed: return kCallCap / 2;
    case Traffic::kBatched: return kBatchRounds * kBatch;
  }
  return 0;
}

template <bool kTraced>
void run_worker(NativeQueue& q, Traffic traffic, const Script& s, u32 id, u64 rep_ns,
                Worker& w, Progress& prog, SpanRing& ring, u32 parent, SpanNames names) {
  u64 t = host_ns();
  w.start = t;
  const u64 end = t + rep_ns;
  auto span = [&](u64 a, u64 b, u32 name) {
    if constexpr (kTraced) ring.push(Span{a, b, parent, name, id, Clock::kHostNs});
  };
  const u64 len = s.prio.size();
  u64 i = 0;
  if (traffic == Traffic::kPaper) {
    for (; t < end && i < len; ++i) {
      NativePlatform::delay(kLocalWork);
      const u64 t0 = host_ns();
      if (s.is_insert[i]) {
        if (!q.insert(s.prio[i], tag(id, i))) {
          ++w.refused;
          w.refused_seq.push_back(i);
        }
        t = host_ns();
        w.ins_ns.push(static_cast<u32>(t - t0));
        span(t0, t, names.insert);
      } else {
        const auto e = q.delete_min();
        t = host_ns();
        w.del_ns.push(static_cast<u32>(t - t0));
        span(t0, t, names.del);
        ++w.deletes;
        if (e)
          w.removed.push(fpq::pack_entry(*e));
        else
          ++w.empties;
      }
      ++w.ops;
      prog.ops.store(w.ops, std::memory_order_relaxed);
    }
  } else if (traffic == Traffic::kMixed) {
    for (; t < end && i < len; ++i) {
      if (!q.insert(s.prio[i], tag(id, i))) {
        ++w.refused;
        w.refused_seq.push_back(i);
      }
      const u64 t1 = host_ns();
      w.ins_ns.push(static_cast<u32>(t1 - t));
      span(t, t1, names.insert);
      const auto e = q.delete_min();
      const u64 t2 = host_ns();
      w.del_ns.push(static_cast<u32>(t2 - t1));
      span(t1, t2, names.del);
      ++w.deletes;
      if (e)
        w.removed.push(fpq::pack_entry(*e));
      else
        ++w.empties;
      t = t2;
      w.ops += 2;
      prog.ops.store(w.ops, std::memory_order_relaxed);
    }
  } else {
    Entry batch[kBatch];
    Entry out[kBatch];
    for (; t < end && (i + 1) * kBatch <= len; ++i) {
      for (u32 j = 0; j < kBatch; ++j) {
        const u64 seq = i * kBatch + j;
        batch[j] = Entry{s.prio[seq], tag(id, seq)};
      }
      const u32 accepted = q.insert_batch(std::span<const Entry>(batch, kBatch));
      w.refused += kBatch - accepted;
      const u64 t1 = host_ns();
      w.ins_ns.push(static_cast<u32>(t1 - t));
      span(t, t1, names.insert);
      const u32 got = q.delete_min_batch(std::span<Entry>(out, kBatch));
      const u64 t2 = host_ns();
      w.del_ns.push(static_cast<u32>(t2 - t1));
      span(t1, t2, names.del);
      w.deletes += kBatch;
      w.empties += kBatch - got;
      for (u32 j = 0; j < got; ++j) w.removed.push(fpq::pack_entry(out[j]));
      t = t2;
      w.ops += 2 * kBatch;
      prog.ops.store(w.ops, std::memory_order_relaxed);
    }
  }
  w.steps = i;
  w.end = t;
}

struct CellState {
  const CellSpec* cell = nullptr;
  std::vector<SpanRing> rings; // per worker: the last traced repetition
  NativeCellResult result;
};

/// Phase-wide state shared by every cell's repetitions.
struct PhaseState {
  std::vector<Worker> workers;
  std::vector<Progress> progress;
  FixedBuf<u32> pool; // pooled latency samples for the percentiles
  explicit PhaseState(u32 n) : workers(n), progress(n), pool(2 * n * kCallCap) {}
};

NativeRep run_rep(CellState& cs, PhaseState& ps, const NativeConfig& cfg,
                  const NativeFactory& make, const std::vector<Script>& scripts,
                  const Script& prefill, bool traced, Trace& trace, Watchdog& dog, u32 parent) {
  const CellSpec& cell = *cs.cell;
  const u32 n = cfg.threads;
  NativeRep rep;
  rep.traced = traced;
  const u32 cell_span = trace.begin(cell.name, parent);

  // Set-up: construction plus prefill.
  u32 sp = trace.begin("setup", cell_span);
  const u64 s0 = host_ns();
  std::unique_ptr<NativeQueue> q = make(cell, n, cfg.traffic, cfg.seed);
  u64 prefill_refused = 0;
  if (cfg.traffic != Traffic::kPaper) {
    // On this thread, as processor 0: spawning a thread for the prefill
    // would make thread creation most of the measured set-up time.
    NativePlatform::adopt(0, n, cfg.seed);
    for (u32 i = 0; i < kPrefill; ++i)
      if (!q->insert(prefill.prio[i], tag(n, i))) ++prefill_refused;
    NativePlatform::release();
  }
  rep.setup_s = static_cast<double>(host_ns() - s0) * 1e-9;
  trace.end(sp);

  // Timed phase.
  for (u32 i = 0; i < n; ++i) {
    ps.workers[i].reset();
    ps.progress[i].ops.store(0, std::memory_order_relaxed);
    if (traced) {
      if (!cs.rings[i].active()) cs.rings[i] = SpanRing(kRingSpans);
      cs.rings[i].clear();
    }
  }
  sp = trace.begin("timed", cell_span);
  const bool batched = cfg.traffic == Traffic::kBatched;
  const SpanNames names{trace.name_id(batched ? "pq:insert_batch" : "pq:insert"),
                        trace.name_id(batched ? "pq:delete_min_batch" : "pq:delete_min")};
  const u64 rep_ns = static_cast<u64>(cfg.rep_seconds * 1e9);
  dog.arm(cell.name + " timed phase", cfg.rep_seconds + kGraceSeconds, ps.progress.data(), n);
  NativePlatform::run(
      n,
      [&](ProcId id) {
        if (traced)
          run_worker<true>(*q, cfg.traffic, scripts[id], id, rep_ns, ps.workers[id],
                           ps.progress[id], cs.rings[id], sp, names);
        else
          run_worker<false>(*q, cfg.traffic, scripts[id], id, rep_ns, ps.workers[id],
                            ps.progress[id], cs.rings[id], sp, names);
      },
      cfg.seed);
  dog.disarm();
  trace.end(sp);

  // Pool the samples: inserts first, then deletes, so each kind can be
  // ranked on its own sub-range before ranking all of them together.
  u64 first = ~0ull, last = 0;
  ps.pool.n = 0;
  for (Worker& w : ps.workers) {
    first = std::min(first, w.start);
    last = std::max(last, w.end);
    rep.ops += w.ops;
    rep.deletes += w.deletes;
    rep.empties += w.empties;
    rep.refused += w.refused;
    for (u32 x : w.ins_ns) ps.pool.push(x);
  }
  const u64 n_ins = ps.pool.n;
  for (Worker& w : ps.workers)
    for (u32 x : w.del_ns) ps.pool.push(x);
  rep.refused += prefill_refused;
  rep.mops = last > first ? static_cast<double>(rep.ops) * 1e3 / static_cast<double>(last - first)
                          : 0;
  u32* const mid = ps.pool.begin() + n_ins;
  rep.ins_p50 = exact_percentile(ps.pool.begin(), mid, 0.50);
  rep.ins_p99 = exact_percentile(ps.pool.begin(), mid, 0.99);
  rep.del_p50 = exact_percentile(mid, ps.pool.end(), 0.50);
  rep.del_p99 = exact_percentile(mid, ps.pool.end(), 0.99);
  rep.all_p99 = exact_percentile(ps.pool.begin(), ps.pool.end(), 0.99);

  // Layer statistics, read through PqAdapter::impl() before the drain.
  using LfAdapter =
      fpq::PqAdapter<NativePlatform, fpq::LockfreeSkipListPq<NativePlatform>>;
  using ShAdapter = fpq::PqAdapter<NativePlatform, fpq::ShardedPq<NativePlatform>>;
  if (auto* lf = dynamic_cast<LfAdapter*>(q.get())) {
    sp = trace.begin("reclaim:reclaim_stats", cell_span);
    cs.result.reclaim = lf->impl().reclaim_stats();
    cs.result.reclaim_ops = rep.ops;
    trace.end(sp);
  }
  if (auto* sh = dynamic_cast<ShAdapter*>(q.get())) {
    sp = trace.begin("shard:stats", cell_span);
    cs.result.shards = sh->impl().stats();
    trace.end(sp);
  }

  // Drain on one thread, then check the items.
  sp = trace.begin("check", cell_span);
  const u32 vsp = trace.begin("verify:check", sp);
  const u64 c0 = host_ns();
  std::vector<Entry> drained;
  Progress drain_prog;
  dog.arm(cell.name + " drain", kGraceSeconds, &drain_prog, 1);
  NativePlatform::adopt(0, n, cfg.seed);
  while (auto e = q->delete_min()) {
    drained.push_back(*e);
    drain_prog.ops.store(drained.size(), std::memory_order_relaxed);
  }
  NativePlatform::release();
  dog.disarm();
  OutputCheck chk(n);
  if (cfg.traffic != Traffic::kPaper)
    for (u32 i = 0; i < kPrefill; ++i) chk.expect(n, i, prefill.prio[i]);
  for (u32 id = 0; id < n; ++id)
    for_each_inserted(cfg.traffic, scripts[id], ps.workers[id].steps,
                      ps.workers[id].refused_seq,
                      [&](u64 seq, Prio p) { chk.expect(id, seq, p); });
  for (Worker& w : ps.workers)
    for (u64 x : w.removed) chk.removed(fpq::unpack_entry(x));
  const bool exact = cell_is_exact(cell);
  for (const Entry& e : drained) chk.drained(e, exact);
  rep.check = chk.finish();
  rep.check_s = static_cast<double>(host_ns() - c0) * 1e-9;
  trace.end(vsp);
  trace.end(sp);
  trace.end(cell_span);
  return rep;
}

} // namespace

std::vector<NativeCellResult> run_native_phase(const std::vector<CellSpec>& cells,
                                               const NativeConfig& cfg,
                                               Trace& trace, Watchdog& dog, u32 parent_span,
                                               const NativeFactory& make) {
  // Inputs first, before anything is timed.
  std::vector<Script> scripts;
  for (u32 id = 0; id < cfg.threads; ++id)
    scripts.push_back(make_script(cfg.seed, id, cfg.traffic, script_len(cfg.traffic)));
  const Script prefill = make_script(cfg.seed, cfg.threads, Traffic::kMixed, kPrefill);

  PhaseState ps(cfg.threads);
  std::vector<CellState> states(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    states[c].cell = &cells[c];
    states[c].rings = std::vector<SpanRing>(cfg.threads);
    states[c].result.cell = &cells[c];
  }
  for (u32 round = 0; round < cfg.warmup_rounds + cfg.rounds; ++round) {
    const bool measured = round >= cfg.warmup_rounds;
    // In the traced run every other measured round records call spans, so
    // traced and untraced throughput can be compared.
    const bool traced = trace.on() && measured && (round - cfg.warmup_rounds) % 2 == 0;
    const u32 rsp = trace.begin(measured ? "round" : "warmup", parent_span);
    for (CellState& cs : states) {
      NativeRep rep = run_rep(cs, ps, cfg, make, scripts, prefill, traced, trace, dog, rsp);
      rep.measured = measured;
      cs.result.reps.push_back(std::move(rep));
    }
    trace.end(rsp);
  }
  std::vector<NativeCellResult> out;
  for (CellState& cs : states) {
    for (SpanRing& r : cs.rings) trace.keep(std::move(r));
    out.push_back(std::move(cs.result));
  }
  return out;
}

} // namespace pb
