// The two kinds of phase a workload runs — a native phase on OS threads and
// a simulated phase on sim::Engine — and the component probes of the traced
// run. Each returns raw per-cell results; main.cpp turns them into metrics.
#pragma once

#include <functional>
#include <optional>

#include "common.hpp"
#include "platform/native.hpp"
#include "platform/sim.hpp"
#include "sim/memory.hpp"

namespace pb {

/// Builds the queue of one cell; the self-test wraps the registry queues.
template <fpq::Platform P>
using QueueFactory = std::function<std::unique_ptr<fpq::IPriorityQueue<P>>(
    const CellSpec&, u32 nprocs, Traffic, u64 seed)>;

using NativeQueue = fpq::IPriorityQueue<fpq::NativePlatform>;
using NativeFactory = QueueFactory<fpq::NativePlatform>;
using SimFactory = QueueFactory<fpq::SimPlatform>;

struct NativeConfig {
  Traffic traffic = Traffic::kMixed;
  u32 threads = 3;
  double rep_seconds = 0.1;
  u32 warmup_rounds = 1; // whole rounds run before measuring, then discarded
  u32 rounds = 29;       // measured rounds; each runs every cell once
  u64 seed = 1;
};

/// One measured repetition of one native cell: a fresh queue, set-up,
/// timed phase, drain and output check.
struct NativeRep {
  bool measured = false; // false for warm-up rounds, whose check still counts
  bool traced = false;
  double setup_s = 0;
  double check_s = 0;
  double mops = 0;
  u64 ops = 0;      // completed operations (batched elements count singly)
  u64 deletes = 0;  // delete-min operations (elements when batched)
  u64 empties = 0;  // delete-min operations that returned no item
  u64 refused = 0;  // inserts the queue refused
  Percentile all_p99, ins_p50, ins_p99, del_p50, del_p99; // ns per call
  CheckResult check;
};

struct NativeCellResult {
  const CellSpec* cell = nullptr;
  std::vector<NativeRep> reps;
  /// Read from the last repetition through PqAdapter::impl().
  std::optional<fpq::reclaim::DomainStats> reclaim;
  u64 reclaim_ops = 0;
  std::vector<fpq::ShardStats> shards;
};

std::vector<NativeCellResult> run_native_phase(const std::vector<CellSpec>& cells,
                                               const NativeConfig& cfg,
                                               Trace& trace, Watchdog& dog, u32 parent_span,
                                               const NativeFactory& make =
                                                   make_cell_queue<fpq::NativePlatform>);

/// Size of a workload's simulated phase.
struct SimConfig {
  u32 procs = 16;
  u32 ops_per_proc = 100; // accesses (paper), pairs (mixed), rounds (batched)
  u32 runs = 1;           // independent simulations per cell, summed
};

struct SimCellResult {
  const CellSpec* cell = nullptr;
  double setup_s = 0;
  double host_s = 0; // host wall time inside Engine::run (timed phase)
  double check_s = 0;
  u64 ops = 0; // operations (batched elements count singly)
  u64 ins_calls = 0, del_calls = 0;
  u64 ins_cycles = 0, del_cycles = 0;
  u64 refused = 0;
  Percentile op_p99; // cycles per call
  fpq::sim::MemStats mem; // timed phase only
  u64 accesses = 0;       // timed phase only
  CheckResult check;
  double cycles_per_op() const {
    return ops == 0 ? 0 : static_cast<double>(ins_cycles + del_cycles) / static_cast<double>(ops);
  }
};

std::vector<SimCellResult> run_sim_phase(const std::vector<CellSpec>& cells, Traffic traffic,
                                         u64 seed, const SimConfig& cfg, Trace& trace,
                                         Watchdog& dog, u32 parent_span,
                                         const SimFactory& make =
                                             make_cell_queue<fpq::SimPlatform>);

/// Component probes of the traced run: each calls one layer's public entry
/// points directly and reports ns (native) or simulated cycles per call.
struct ProbeResults {
  double counter_pair_ns[2] = {0, 0}; // [exchange, aggregate]
  double stack_pair_ns[2] = {0, 0};
  double counter_sim_cycles[2] = {0, 0};
  double folded_joins_per_op = 0;
  double mcs_pair_ns = 0, ttas_pair_ns = 0, mcs_sim_cycles = 0;
  double bin_pair_ns = 0, bin_sim_cycles = 0;
  double clock_read_ns = 0, run_fork_join_us = 0;
  double rank_error_mean = 0, rank_error_p99 = 0;
};

ProbeResults run_probes(u32 threads, u32 sim_procs, u64 seed, Trace& trace, u32 parent_span);

} // namespace pb
