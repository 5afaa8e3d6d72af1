// Component probes of the traced run. Each drives one layer's public entry
// points directly — FunnelCounter/FunnelStack, McsLock/TtasLock, LockedBin,
// the platform's clock and fork-join, the sharded queue's rank error — at
// the workload's thread or processor count.
#include "container/bin.hpp"
#include "funnel/counter.hpp"
#include "funnel/stack.hpp"
#include "phases.hpp"
#include "sim/engine.hpp"
#include "sync/mcs_lock.hpp"
#include "sync/ttas_lock.hpp"
#include "verify/history.hpp"
#include "verify/rank_error.hpp"

namespace pb {
namespace {

using fpq::NativePlatform;
using fpq::SimPlatform;

constexpr u64 kNativePairs = 20000; // per thread
constexpr u32 kSimOps = 24;         // per simulated processor
constexpr u64 kRankPairs = 4096;    // per thread

/// Runs `pair()` kNativePairs times on each of `threads` threads; returns
/// the mean wall ns of one pair on one thread.
template <class Fn>
double native_pair_ns(u32 threads, Trace& trace, std::string_view name, u32 parent, Fn pair) {
  const u32 sp = trace.begin(name, parent);
  const u64 t0 = host_ns();
  NativePlatform::run(threads, [&](ProcId id) {
    for (u64 i = 0; i < kNativePairs; ++i) pair(id, i);
  });
  const double ns = static_cast<double>(host_ns() - t0) / static_cast<double>(kNativePairs);
  trace.end(sp);
  return ns;
}

/// Runs the paper's cadence on `procs` simulated processors: local work,
/// then `op(id, i, insert)` with a seeded coin. Returns mean cycles per op.
template <class Fn>
double sim_cycles(u32 procs, u64 seed, Trace& trace, std::string_view name, u32 parent,
                  Fn op) {
  std::vector<Script> scripts;
  for (u32 id = 0; id < procs; ++id)
    scripts.push_back(make_script(seed, id, Traffic::kPaper, kSimOps));
  fpq::sim::Engine engine(procs, fpq::sim::MachineParams{}, seed);
  u64 cycles = 0;
  const u32 sp = trace.begin(name, parent);
  const u64 h0 = host_ns();
  engine.run([&](ProcId id) {
    for (u32 i = 0; i < kSimOps; ++i) {
      SimPlatform::delay(kLocalWork);
      const Cycles t0 = SimPlatform::now();
      op(id, i, scripts[id].is_insert[i] != 0);
      cycles += SimPlatform::now() - t0;
    }
  });
  trace.add("sim:Engine::run", sp, h0, host_ns(), Clock::kHostNs);
  trace.end(sp);
  return static_cast<double>(cycles) / (static_cast<double>(procs) * kSimOps);
}

constexpr FunnelProtocol kProtocols[2] = {FunnelProtocol::kExchange, FunnelProtocol::kAggregate};

fpq::FunnelCounter<NativePlatform>::Config counter_config() {
  fpq::FunnelCounter<NativePlatform>::Config c;
  c.bounded = true;
  c.floor = 0;
  return c;
}

} // namespace

ProbeResults run_probes(u32 threads, u32 sim_procs, u64 seed, Trace& trace, u32 parent) {
  ProbeResults r;
  const u32 psp = trace.begin("probe", parent);

  for (int k = 0; k < 2; ++k) {
    const FunnelProtocol proto = kProtocols[k];
    {
      fpq::FunnelCounter<NativePlatform> c(threads,
                                           fpq::FunnelParams::for_procs(threads, proto),
                                           counter_config());
      r.counter_pair_ns[k] = native_pair_ns(
          threads, trace,
          k == 0 ? "funnel.counter:fai+bfad/exchange" : "funnel.counter:fai+bfad/agg", psp,
          [&](ProcId, u64) {
            c.fai();
            c.bfad(0);
          });
    }
    {
      fpq::FunnelStack<NativePlatform> s(threads, fpq::FunnelParams::for_procs(threads, proto),
                                         1u << 14);
      r.stack_pair_ns[k] = native_pair_ns(
          threads, trace, k == 0 ? "funnel.stack:push+pop/exchange" : "funnel.stack:push+pop/agg",
          psp, [&](ProcId id, u64 i) {
            s.push(tag(id, i));
            s.pop();
          });
    }
    {
      fpq::FunnelCounter<SimPlatform>::Config cfg;
      cfg.bounded = true;
      cfg.floor = 0;
      fpq::FunnelCounter<SimPlatform> c(sim_procs, fpq::FunnelParams::for_procs(sim_procs, proto),
                                        cfg);
      r.counter_sim_cycles[k] = sim_cycles(
          sim_procs, seed, trace,
          k == 0 ? "funnel.counter:sim/exchange" : "funnel.counter:sim/agg", psp,
          [&](ProcId, u32, bool inc) {
            if (inc)
              c.fai();
            else
              c.bfad(0);
          });
      if (proto == FunnelProtocol::kAggregate)
        r.folded_joins_per_op = static_cast<double>(c.folded_joins()) /
                                (static_cast<double>(sim_procs) * kSimOps);
    }
  }

  {
    fpq::McsLock<NativePlatform> mcs(threads);
    r.mcs_pair_ns = native_pair_ns(threads, trace, "sync.mcs:acquire+release", psp,
                                   [&](ProcId, u64) {
                                     mcs.acquire();
                                     mcs.release();
                                   });
    fpq::TtasLock<NativePlatform> ttas;
    r.ttas_pair_ns = native_pair_ns(threads, trace, "sync.ttas:acquire+release", psp,
                                    [&](ProcId, u64) {
                                      ttas.acquire();
                                      ttas.release();
                                    });
    fpq::McsLock<SimPlatform> smcs(sim_procs);
    r.mcs_sim_cycles = sim_cycles(sim_procs, seed, trace, "sync.mcs:sim", psp,
                                  [&](ProcId, u32, bool) {
                                    smcs.acquire();
                                    smcs.release();
                                  });
  }
  {
    fpq::LockedBin<NativePlatform> bin(threads, 1u << 14);
    r.bin_pair_ns = native_pair_ns(threads, trace, "container.bin:insert+remove", psp,
                                   [&](ProcId id, u64 i) {
                                     bin.insert(tag(id, i));
                                     bin.remove();
                                   });
    fpq::LockedBin<SimPlatform> sbin(sim_procs, 1u << 14);
    r.bin_sim_cycles = sim_cycles(sim_procs, seed, trace, "container.bin:sim", psp,
                                  [&](ProcId id, u32 i, bool ins) {
                                    if (ins)
                                      sbin.insert(tag(id, i));
                                    else
                                      sbin.remove();
                                  });
  }
  {
    constexpr u32 kReads = 1u << 20;
    u32 sp = trace.begin("platform:now", psp);
    const u64 t0 = host_ns();
    [[maybe_unused]] volatile Cycles sink = 0;
    for (u32 i = 0; i < kReads; ++i) sink = NativePlatform::now();
    r.clock_read_ns = static_cast<double>(host_ns() - t0) / kReads;
    trace.end(sp);
    constexpr u32 kRuns = 200;
    sp = trace.begin("platform:run", psp);
    const u64 t1 = host_ns();
    for (u32 i = 0; i < kRuns; ++i) NativePlatform::run(threads, [](ProcId) {});
    r.run_fork_join_us = static_cast<double>(host_ns() - t1) * 1e-3 / kRuns;
    trace.end(sp);
  }
  {
    // Rank error of the sharded cell under insert + delete-min pairs, from
    // a recorded history (processor-local recording) and a quiescent drain.
    const u32 sp = trace.begin("shard:rank_error", psp);
    const CellSpec sharded{"Sharded", Algorithm::kSharded, FunnelProtocol::kExchange};
    auto q = make_cell_queue<NativePlatform>(sharded, threads, Traffic::kMixed, seed);
    std::vector<Script> scripts;
    for (u32 id = 0; id < threads; ++id)
      scripts.push_back(make_script(seed, id, Traffic::kMixed, kRankPairs));
    fpq::HistoryRecorder rec(threads);
    NativePlatform::run(
        threads,
        [&](ProcId id) {
          for (u64 i = 0; i < kRankPairs; ++i) {
            const Entry e{scripts[id].prio[i], tag(id, i)};
            const Cycles t0 = NativePlatform::now();
            q->insert(e.prio, e.item);
            rec.record(fpq::OpRecord::insert_op(id, t0, NativePlatform::now(), e));
            const Cycles t2 = NativePlatform::now();
            const auto got = q->delete_min();
            rec.record(fpq::OpRecord::delete_op(id, t2, NativePlatform::now(), got));
          }
        },
        seed);
    NativePlatform::run(1, [&](ProcId id) {
      for (;;) {
        const Cycles t0 = NativePlatform::now();
        const auto got = q->delete_min();
        rec.record(fpq::OpRecord::delete_op(id, t0, NativePlatform::now(), got));
        if (!got) break;
      }
    });
    const fpq::RankErrorReport rep = fpq::compute_rank_error(rec.merged());
    r.rank_error_mean = rep.mean;
    r.rank_error_p99 = rep.p99;
    trace.end(sp);
  }
  trace.end(psp);
  return r;
}

} // namespace pb
