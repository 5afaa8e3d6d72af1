// Shared pieces of the funnelpq benchmark: queue cells, generated inputs,
// exact percentiles, the output check, the watchdog, span tracing and the
// metric sink. Everything here sits outside the library and only calls its
// public entry points.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/registry.hpp"

namespace pb {

using fpq::Algorithm;
using fpq::Cycles;
using fpq::Entry;
using fpq::FunnelProtocol;
using fpq::Item;
using fpq::Prio;
using fpq::ProcId;
using fpq::u32;
using fpq::u64;
using fpq::u8;

inline constexpr u32 kPrios = 16;
inline constexpr u32 kPrefill = 256;
inline constexpr u32 kBatch = 16;
/// Local work between accesses in the paper's workload (§4), in simulated
/// cycles; natively the same count of NativePlatform::delay iterations.
inline constexpr Cycles kLocalWork = 200;

/// Traffic shape of a workload; every phase of the workload issues it.
enum class Traffic : u8 {
  kPaper,   // empty start; each access a coin flip: insert or delete-min
  kMixed,   // 256 prefilled; insert + delete-min pairs
  kBatched, // 256 prefilled; insert_batch(16) + delete_min_batch(16) rounds
};

/// One queue configuration of a workload.
struct CellSpec {
  std::string name;
  Algorithm algo = Algorithm::kFunnelTree;
  FunnelProtocol protocol = FunnelProtocol::kExchange;
};

/// Whether a solo drain at quiescence must come out in nondecreasing
/// priority. Not for Sharded: c=2 of K=4 sampling skips minima by design,
/// and the stress harness exempts it too.
inline bool cell_is_exact(const CellSpec& c) { return c.algo != Algorithm::kSharded; }

fpq::PqParams cell_params(const CellSpec& c, u32 nprocs, Traffic t, u64 seed);

template <fpq::Platform P>
std::unique_ptr<fpq::IPriorityQueue<P>> make_cell_queue(const CellSpec& c, u32 nprocs,
                                                        Traffic t, u64 seed) {
  fpq::FunnelOptions fo;
  fo.protocol = c.protocol;
  return fpq::make_priority_queue<P>(c.algo, cell_params(c, nprocs, t, seed), fo);
}

// ---- Item tags: (processor, sequence number). Prefill items carry the
// pseudo-processor id `nprocs`.
inline Item tag(u32 proc, u64 seq) { return (static_cast<u64>(proc) << 32) | seq; }
inline u32 tag_proc(Item it) { return static_cast<u32>(it >> 32); }
inline u64 tag_seq(Item it) { return it & 0xFFFFFFFFull; }

/// Per-processor generated inputs. Index i is the i-th access (paper) or
/// the i-th inserted item (mixed, batched).
struct Script {
  std::vector<u8> prio;
  std::vector<u8> is_insert; // paper traffic only
};

/// Deterministic in (seed, proc, traffic, len).
Script make_script(u64 seed, u32 proc, Traffic t, u64 len);

// ---- Exact percentiles over raw samples.
struct Percentile {
  double value = 0;
  u64 n = 0;      // samples
  u64 beyond = 0; // samples strictly greater than value
};

/// Nearest-rank percentile (rank ceil(q*n)) of [first, last); reorders it.
template <class It>
Percentile exact_percentile(It first, It last, double q) {
  Percentile p;
  p.n = static_cast<u64>(last - first);
  if (p.n == 0) return p;
  u64 rank = static_cast<u64>(std::ceil(q * static_cast<double>(p.n)));
  rank = std::clamp<u64>(rank, 1, p.n);
  const It nth = first + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(first, nth, last);
  const auto at = *nth;
  p.value = static_cast<double>(at);
  p.beyond = static_cast<u64>(std::count_if(nth + 1, last, [at](auto x) { return x > at; }));
  return p;
}

/// Calls fn(seq, prio) for each item a processor inserted in its first
/// `steps` steps of script `s` (accesses, pairs or batch rounds), skipping
/// the point inserts listed in `refused_seq` (ascending).
template <class Fn>
void for_each_inserted(Traffic traffic, const Script& s, u64 steps,
                       const std::vector<u64>& refused_seq, Fn fn) {
  if (traffic == Traffic::kBatched) {
    // A partially refused batch does not say which entries were refused;
    // the refusal already counts as a failure, so expect every entry.
    for (u64 seq = 0; seq < steps * kBatch; ++seq) fn(seq, s.prio[seq]);
    return;
  }
  std::size_t r = 0;
  for (u64 i = 0; i < steps; ++i) {
    if (traffic == Traffic::kPaper && !s.is_insert[i]) continue;
    while (r < refused_seq.size() && refused_seq[r] < i) ++r;
    if (r < refused_seq.size() && refused_seq[r] == i) continue;
    fn(i, s.prio[i]);
  }
}

// ---- Output check: the deleted and drained items must equal the
// prefilled and inserted ones.
struct CheckResult {
  u64 expected = 0;
  u64 removed = 0;
  u64 lost = 0;
  u64 duplicated = 0;
  u64 invented = 0;
  u64 misordered = 0; // drain steps that decreased priority (exact queues)
  u64 failures() const { return lost + duplicated + invented + misordered; }
};

class OutputCheck {
 public:
  explicit OutputCheck(u32 nprocs);
  /// Records that processor `proc` inserted item (proc, seq) at priority p.
  void expect(u32 proc, u64 seq, Prio p);
  /// An item a delete-min returned during the timed phase.
  void removed(const Entry& e);
  /// An item of the post-run drain, in drain order.
  void drained(const Entry& e, bool exact);
  CheckResult finish();

 private:
  // Per processor and sequence number: 0 absent, 1 expected, 2 removed.
  std::vector<std::vector<u8>> state_;
  std::vector<std::vector<u8>> prio_;
  CheckResult r_;
  int last_drained_prio_ = -1;
};

/// Padded per-worker completed-op counter read by the watchdog.
struct alignas(64) Progress {
  std::atomic<u64> ops{0};
};

// ---- Watchdog: a hang fails the run instead of stalling it.
class Watchdog {
 public:
  /// No deadline reaches past `budget_seconds` from construction, so the
  /// watchdog trips before an outer time limit of the whole run would.
  explicit Watchdog(double budget_seconds);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Arms a deadline for `what`. On expiry prints each worker's
  /// completed-op counter and exits the process with status 3.
  void arm(std::string what, double seconds, const Progress* progress, u32 n);
  void disarm();

 private:
  void loop();
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool armed_ = false;
  std::string what_;
  std::chrono::steady_clock::time_point deadline_;
  std::chrono::steady_clock::time_point last_deadline_;
  const Progress* progress_ = nullptr;
  u32 n_ = 0;
  std::thread thread_; // last: starts after the state it reads
};


// ---- Spans.
enum class Clock : u8 { kHostNs = 0, kSimCycles = 1 };

struct Span {
  u64 start = 0;
  u64 end = 0;
  u32 parent = 0;
  u32 name = 0;
  u32 thread = 0;
  Clock clock = Clock::kHostNs;
};

/// Fixed-capacity span ring: the newest `cap` spans are kept. Its storage
/// is reserved at construction and never reallocated.
class SpanRing {
 public:
  SpanRing() = default;
  explicit SpanRing(std::size_t cap) { buf_.reserve(cap); }

  void push(const Span& s) {
    if (buf_.size() < buf_.capacity())
      buf_.push_back(s);
    else
      buf_[count_ % buf_.size()] = s;
    ++count_;
  }
  bool active() const { return buf_.capacity() != 0; }
  void clear() {
    buf_.clear();
    count_ = 0;
  }
  u64 count() const { return count_; }
  u64 kept() const { return buf_.size(); }
  /// The retained spans, oldest first.
  std::vector<Span> contents() const;

 private:
  std::vector<Span> buf_;
  u64 count_ = 0;
};
/// Run-wide trace: structural spans (run, cell, phase, probe) recorded on
/// the main thread, plus the call-span rings of every thread. Storage is
/// reserved up front in traced and untraced runs alike, so that tracing
/// changes no heap allocation a simulated cell could observe. Names must
/// outlive the trace (string literals and the static cell tables).
class Trace {
 public:
  explicit Trace(bool on);
  bool on() const { return on_; }
  u32 name_id(std::string_view name);
  /// Opens a structural span on the host clock; returns its id (0 when off).
  u32 begin(std::string_view name, u32 parent);
  void end(u32 id);
  /// Records a finished structural span on either clock.
  u32 add(std::string_view name, u32 parent, u64 start, u64 end, Clock clock);
  /// Keeps a ring of call spans for the output — in untraced runs too, so
  /// that both keep the same allocations alive.
  void keep(SpanRing&& ring);
  /// Call spans recorded, and those overwritten in full rings.
  u64 call_spans() const;
  u64 dropped_spans() const;
  bool write_csv(const std::string& path) const;

 private:
  bool on_;
  std::vector<std::string_view> names_;
  std::vector<Span> spans_; // id = index + 1
  std::vector<SpanRing> rings_;
  u64 overflow_ = 0;
};

/// Host steady-clock nanoseconds.
u64 host_ns();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double median(std::vector<double> v);

} // namespace pb
