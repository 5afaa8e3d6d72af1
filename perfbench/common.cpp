#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace pb {

fpq::PqParams cell_params(const CellSpec& c, u32 nprocs, Traffic t, u64 seed) {
  fpq::PqParams p;
  p.npriorities = kPrios;
  p.maxprocs = nprocs;
  // The paper traffic's queue size is a reflected random walk; 2^14 per
  // bin leaves it far from any refusal on every workload.
  p.bin_capacity = 1u << 14;
  p.heap_capacity = 1u << 16;
  p.seed = seed;
  p.max_batch = t == Traffic::kBatched ? kBatch : 1;
  if (c.algo == Algorithm::kSharded) p.shard = {4, 2, fpq::ShardPolicyKind::kAdaptive};
  return p;
}

Script make_script(u64 seed, u32 proc, Traffic t, u64 len) {
  fpq::Xorshift rng(seed * 0x9E3779B97F4A7C15ull + (u64{proc} + 1) * 0x100000001B3ull +
                    static_cast<u64>(t));
  Script s;
  s.prio.resize(len);
  if (t == Traffic::kPaper) s.is_insert.resize(len);
  for (u64 i = 0; i < len; ++i) {
    if (t == Traffic::kPaper) s.is_insert[i] = rng.flip() ? 1 : 0;
    s.prio[i] = static_cast<u8>(rng.below(kPrios));
  }
  return s;
}

// ---- OutputCheck

OutputCheck::OutputCheck(u32 nprocs) : state_(nprocs + 1), prio_(nprocs + 1) {}

void OutputCheck::expect(u32 proc, u64 seq, Prio p) {
  auto& st = state_.at(proc);
  auto& pr = prio_.at(proc);
  if (seq >= st.size()) {
    st.resize(seq + 1, 0);
    pr.resize(seq + 1, 0);
  }
  if (st[seq] == 0) ++r_.expected;
  st[seq] = 1;
  pr[seq] = static_cast<u8>(p);
}

void OutputCheck::removed(const Entry& e) {
  const u32 proc = tag_proc(e.item);
  const u64 seq = tag_seq(e.item);
  if (proc >= state_.size() || seq >= state_[proc].size() || state_[proc][seq] == 0 ||
      prio_[proc][seq] != e.prio) {
    ++r_.invented;
    return;
  }
  if (state_[proc][seq] == 2) {
    ++r_.duplicated;
    return;
  }
  state_[proc][seq] = 2;
  ++r_.removed;
}

void OutputCheck::drained(const Entry& e, bool exact) {
  if (exact && static_cast<int>(e.prio) < last_drained_prio_) ++r_.misordered;
  last_drained_prio_ = static_cast<int>(e.prio);
  removed(e);
}

CheckResult OutputCheck::finish() {
  r_.lost = 0;
  for (const auto& st : state_)
    for (u8 s : st) r_.lost += s == 1 ? 1 : 0;
  return r_;
}

// ---- Watchdog

Watchdog::Watchdog(double budget_seconds)
    : last_deadline_(std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(budget_seconds))),
      thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::arm(std::string what, double seconds, const Progress* progress, u32 n) {
  std::lock_guard<std::mutex> lk(mu_);
  armed_ = true;
  what_ = std::move(what);
  deadline_ = std::min(last_deadline_,
                       std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(seconds)));
  progress_ = progress;
  n_ = n;
}

void Watchdog::disarm() {
  std::lock_guard<std::mutex> lk(mu_);
  armed_ = false;
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(50));
    if (stop_ || !armed_ || std::chrono::steady_clock::now() < deadline_) continue;
    // A hung queue never returns control, so report and end the process
    // here; the workers cannot be joined.
    std::string msg = "watchdog: " + what_ + " missed its deadline; completed ops per worker:";
    for (u32 i = 0; i < n_; ++i) {
      msg += ' ';
      msg += std::to_string(progress_[i].ops.load(std::memory_order_relaxed));
    }
    std::fprintf(stdout, "%s\n", msg.c_str());
    std::fprintf(stderr, "%s\n", msg.c_str());
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(3);
  }
}

// ---- Spans

std::vector<Span> SpanRing::contents() const {
  if (count_ <= buf_.size()) return buf_;
  // Full and wrapped: the oldest span sits where the next one would go.
  const std::size_t head = count_ % buf_.size();
  std::vector<Span> out(buf_.begin() + static_cast<std::ptrdiff_t>(head), buf_.end());
  out.insert(out.end(), buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head));
  return out;
}

namespace {
constexpr std::size_t kMaxNames = 512;
constexpr std::size_t kMaxSpans = 1u << 15;
constexpr std::size_t kMaxRings = 256;
} // namespace

Trace::Trace(bool on) : on_(on) {
  names_.reserve(kMaxNames);
  spans_.reserve(kMaxSpans);
  rings_.reserve(kMaxRings);
}

u32 Trace::name_id(std::string_view name) {
  for (u32 i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  if (names_.size() == kMaxNames) return 0;
  names_.push_back(name);
  return static_cast<u32>(names_.size() - 1);
}

u32 Trace::add(std::string_view name, u32 parent, u64 start, u64 end, Clock clock) {
  if (!on_) return 0;
  if (spans_.size() == kMaxSpans) {
    ++overflow_;
    return 0;
  }
  spans_.push_back(Span{start, end, parent, name_id(name), 0, clock});
  return static_cast<u32>(spans_.size());
}

u32 Trace::begin(std::string_view name, u32 parent) {
  return on_ ? add(name, parent, host_ns(), 0, Clock::kHostNs) : 0;
}

void Trace::end(u32 id) {
  if (id != 0) spans_[id - 1].end = host_ns();
}

void Trace::keep(SpanRing&& ring) {
  if (!ring.active()) return;
  if (rings_.size() == kMaxRings) {
    overflow_ += ring.count();
    return;
  }
  rings_.push_back(std::move(ring));
}

u64 Trace::call_spans() const {
  u64 n = 0;
  for (const auto& r : rings_) n += r.count();
  return n;
}

u64 Trace::dropped_spans() const {
  u64 n = overflow_;
  for (const auto& r : rings_) n += r.count() - r.kept();
  return n;
}

bool Trace::write_csv(const std::string& path) const {
  if (!on_) return true;
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,thread,clock,name,start,end\n";
  u64 id = 0;
  auto row = [&](const Span& s) {
    out << ++id << ',' << s.parent << ',' << s.thread << ','
        << (s.clock == Clock::kHostNs ? "ns" : "cycles") << ',' << names_[s.name] << ','
        << s.start << ',' << s.end << '\n';
  };
  for (const Span& s : spans_) row(s);
  for (const auto& r : rings_)
    for (const Span& s : r.contents()) row(s);
  return static_cast<bool>(out);
}

u64 host_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace pb
