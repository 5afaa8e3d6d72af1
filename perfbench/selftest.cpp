// Self-test of the benchmark's own checks: the output check of both the
// native and the simulated phase must catch a queue that drops one item
// and one that duplicates one, the exact percentile must match a sort, and
// the same seed must give the same inputs.
// Run: python3 perfbench/run.py --self-test
#include <cstdio>

#include "phases.hpp"

namespace pb {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

/// Forwards to a real queue, but silently drops the 10th inserted item.
template <fpq::Platform P>
class DroppingQueue final : public fpq::IPriorityQueue<P> {
 public:
  explicit DroppingQueue(std::unique_ptr<fpq::IPriorityQueue<P>> q) : q_(std::move(q)) {}
  bool insert(Prio p, Item it) override {
    if (inserts_.fetch_add(1) == 9) return true;
    return q_->insert(p, it);
  }
  std::optional<Entry> delete_min() override { return q_->delete_min(); }
  u32 insert_batch(std::span<const Entry> e) override { return q_->insert_batch(e); }
  u32 delete_min_batch(std::span<Entry> out) override { return q_->delete_min_batch(out); }
  fpq::PqStatus try_insert(Prio p, Item it, const fpq::TryBudget& b) override {
    return q_->try_insert(p, it, b);
  }
  fpq::PqStatus try_delete_min(Entry& out, const fpq::TryBudget& b) override {
    return q_->try_delete_min(out, b);
  }
  u32 npriorities() const override { return q_->npriorities(); }

 private:
  std::unique_ptr<fpq::IPriorityQueue<P>> q_;
  std::atomic<u64> inserts_{0};
};

/// Forwards to a real queue, but hands out the 10th deleted item twice.
template <fpq::Platform P>
class DuplicatingQueue final : public fpq::IPriorityQueue<P> {
 public:
  explicit DuplicatingQueue(std::unique_ptr<fpq::IPriorityQueue<P>> q) : q_(std::move(q)) {}
  bool insert(Prio p, Item it) override { return q_->insert(p, it); }
  std::optional<Entry> delete_min() override {
    auto e = q_->delete_min();
    if (e && deletes_.fetch_add(1) == 9) q_->insert(e->prio, e->item);
    return e;
  }
  u32 insert_batch(std::span<const Entry> e) override { return q_->insert_batch(e); }
  u32 delete_min_batch(std::span<Entry> out) override { return q_->delete_min_batch(out); }
  fpq::PqStatus try_insert(Prio p, Item it, const fpq::TryBudget& b) override {
    return q_->try_insert(p, it, b);
  }
  fpq::PqStatus try_delete_min(Entry& out, const fpq::TryBudget& b) override {
    return q_->try_delete_min(out, b);
  }
  u32 npriorities() const override { return q_->npriorities(); }

 private:
  std::unique_ptr<fpq::IPriorityQueue<P>> q_;
  std::atomic<u64> deletes_{0};
};

/// A registry queue inside the wrapper W.
template <template <fpq::Platform> class W, fpq::Platform P>
QueueFactory<P> wrapped() {
  return [](const CellSpec& c, u32 n, Traffic t, u64 seed) {
    return std::make_unique<W<P>>(make_cell_queue<P>(c, n, t, seed));
  };
}

const std::vector<CellSpec>& test_cells() {
  static const std::vector<CellSpec> cells = {
      {"SimpleLinear", Algorithm::kSimpleLinear, FunnelProtocol::kExchange}};
  return cells;
}

CheckResult run_native(Traffic traffic, const NativeFactory& make, Watchdog& dog) {
  NativeConfig cfg;
  cfg.traffic = traffic;
  cfg.threads = 2;
  cfg.rep_seconds = 0.02;
  cfg.warmup_rounds = 0;
  cfg.rounds = 1;
  cfg.seed = 7;
  Trace trace(false);
  const auto res = run_native_phase(test_cells(), cfg, trace, dog, 0, make);
  return res.at(0).reps.at(0).check;
}

CheckResult run_sim(Traffic traffic, const SimFactory& make, Watchdog& dog) {
  Trace trace(false);
  const auto res =
      run_sim_phase(test_cells(), traffic, 7, SimConfig{4, 50, 1}, trace, dog, 0, make);
  return res.at(0).check;
}

/// The check must pass the plain queue and catch each wrapper, on the
/// engine that `run(traffic, factory, dog)` drives.
template <fpq::Platform P, class Run>
void test_output_check(const char* engine, Run run, Watchdog& dog) {
  for (Traffic t : {Traffic::kMixed, Traffic::kPaper}) {
    const std::string tn = std::string(engine) + (t == Traffic::kMixed ? " mixed" : " paper");
    const CheckResult clean = run(t, make_cell_queue<P>, dog);
    std::printf("     %s clean: expected=%llu removed=%llu lost=%llu dup=%llu inv=%llu mis=%llu\n",
                tn.c_str(), (unsigned long long)clean.expected, (unsigned long long)clean.removed,
                (unsigned long long)clean.lost, (unsigned long long)clean.duplicated,
                (unsigned long long)clean.invented, (unsigned long long)clean.misordered);
    expect(clean.failures() == 0 && clean.expected > 10,
           (tn + ": unwrapped queue passes the check").c_str());

    const CheckResult drop = run(t, wrapped<DroppingQueue, P>(), dog);
    expect(drop.lost == 1 && drop.duplicated == 0 && drop.invented == 0,
           (tn + ": a dropped item is reported lost").c_str());

    const CheckResult dup = run(t, wrapped<DuplicatingQueue, P>(), dog);
    expect(dup.duplicated == 1 && dup.lost == 0 && dup.invented == 0,
           (tn + ": a duplicated item is reported duplicated").c_str());
  }
}

void test_check_unit() {
  OutputCheck c(1);
  c.expect(0, 0, 3);
  c.expect(0, 1, 5);
  c.expect(1, 0, 2); // prefill pseudo-processor
  c.removed(Entry{5, tag(0, 1)});
  c.removed(Entry{4, tag(0, 7)}); // never inserted
  c.drained(Entry{3, tag(0, 0)}, true);
  c.drained(Entry{2, tag(1, 0)}, true); // priority went down
  const CheckResult r = c.finish();
  expect(r.invented == 1 && r.misordered == 1 && r.lost == 0 && r.duplicated == 0,
         "invented items and a misordered drain are reported");
}

void test_percentile() {
  std::vector<u32> v;
  for (u32 i = 1; i <= 1000; ++i) v.push_back(1001 - i);
  std::vector<u32> w = v;
  const Percentile p = exact_percentile(w.begin(), w.end(), 0.99);
  expect(p.value == 990 && p.n == 1000 && p.beyond == 10, "p99 of 1..1000 is 990, 10 beyond");
  w = v;
  expect(exact_percentile(w.begin(), w.end(), 0.5).value == 500, "p50 of 1..1000 is 500");
}

void test_scripts() {
  const Script a = make_script(42, 3, Traffic::kPaper, 1000);
  const Script b = make_script(42, 3, Traffic::kPaper, 1000);
  const Script c = make_script(43, 3, Traffic::kPaper, 1000);
  expect(a.prio == b.prio && a.is_insert == b.is_insert, "same seed, same inputs");
  expect(a.prio != c.prio, "another seed, other inputs");
}

} // namespace
} // namespace pb

int main() {
  pb::Watchdog dog(170); // below run.py's 175 s limit
  pb::test_check_unit();
  pb::test_percentile();
  pb::test_scripts();
  pb::test_output_check<fpq::NativePlatform>("native", pb::run_native, dog);
  pb::test_output_check<fpq::SimPlatform>("sim", pb::run_sim, dog);
  std::printf("%s\n", pb::g_failures == 0 ? "self-test passed" : "self-test FAILED");
  return pb::g_failures == 0 ? 0 : 1;
}
