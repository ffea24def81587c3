// Self-tests of the benchmark's measurement helpers on fixed inputs:
// percentiles, quartiles (against values Python's statistics.quantiles
// gives), the tail-reporting sample-count rule, per-op counter diffs,
// seeded op-sequence replay, and span self time.  Exits 1 on any failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void test_percentile() {
  const std::vector<double> v = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  CHECK(near(percentile(v, 0), 1));
  CHECK(near(percentile(v, 100), 10));
  CHECK(near(percentile(v, 50), 5.5));
  CHECK(near(percentile(v, 90), 9.1));
  CHECK(near(median({4, 1, 3}), 3));
  CHECK(percentile({}, 50) == 0.0);
  CHECK(near(percentile({7}, 99), 7));
}

void test_quartiles() {
  // Reference values: statistics.quantiles(data, n=4) (Python 3.11).
  struct Case {
    std::vector<double> data;
    double q1, q2, q3;
  };
  const Case cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
      {{5, 1, 3}, 1.0, 3.0, 5.0},
      {{0.2, 0.9}, 0.024999999999999994, 0.55, 1.075},
      {{3.1, 4.1, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3, 2.3, 8.4, 6.2}, 3.1, 5.8, 8.4},
  };
  for (const Case& c : cases) {
    const Quartiles q = quartiles(c.data);
    CHECK(near(q.q1, c.q1));
    CHECK(near(q.q2, c.q2));
    CHECK(near(q.q3, c.q3));
  }
  // IQR as a share of the median: (8.25 - 2.75) / 5.5.
  CHECK(near(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0));
  CHECK(iqr_share({0, 0, 0}) == 0.0);
}

void test_reportable_percentile() {
  CHECK(highest_reportable_percentile(0) == 0.0);
  CHECK(highest_reportable_percentile(19) == 0.0);
  CHECK(highest_reportable_percentile(20) == 50.0);
  CHECK(highest_reportable_percentile(99) == 50.0);
  CHECK(highest_reportable_percentile(100) == 90.0);
  CHECK(highest_reportable_percentile(999) == 90.0);
  CHECK(highest_reportable_percentile(1000) == 99.0);
  CHECK(highest_reportable_percentile(10000) == 99.9);
  CHECK(highest_reportable_percentile(100000) == 99.99);
}

void test_per_op() {
  const Counters before = {{"forwards", 10}, {"hits", 5}, {"only_before", 1}};
  const Counters after = {{"forwards", 30}, {"hits", 5}, {"only_after", 9}};
  const Counters d = per_op(before, after, 4);
  CHECK(d.size() == 2);
  CHECK(near(d.at("forwards"), 5.0));
  CHECK(near(d.at("hits"), 0.0));
  CHECK(d.count("only_after") == 0);
  CHECK(per_op(before, after, 0).at("forwards") == 0.0);
}

void test_seed_replay() {
  OpStream a(42, 3, 1000), b(42, 3, 1000), other_seed(43, 3, 1000),
      other_client(42, 4, 1000);
  bool same = true, differs_seed = false, differs_client = false, in_range = true;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = a.next();
    same = same && x == b.next();
    differs_seed = differs_seed || x != other_seed.next();
    differs_client = differs_client || x != other_client.next();
    in_range = in_range && x < 1000;
  }
  CHECK(same);
  CHECK(differs_seed);
  CHECK(differs_client);
  CHECK(in_range);
  CHECK(seeded_bytes(7, 4096) == seeded_bytes(7, 4096));
  CHECK(seeded_bytes(7, 4096) != seeded_bytes(8, 4096));
  CHECK(derive_seed(1, 2, 3) == derive_seed(1, 2, 3));
  CHECK(derive_seed(1, 2, 3) != derive_seed(1, 2, 4));
  CHECK(derive_seed(1, 2, 3) != derive_seed(2, 2, 3));
}

void test_self_times() {
  SpanLog log;
  const auto root = log.add("op", 1, -1, 0.0, 10.0);
  log.add("a", 1, root, 1.0, 4.0);
  log.add("b", 1, root, 3.0, 6.0);  // overlaps a: the union covers [1, 6]
  const auto c = log.add("c", 1, root, 8.0, 9.0);
  log.add("d", 1, c, 8.25, 8.75);
  const auto self = self_times(log.spans());
  CHECK(near(self.at("op"), 10.0 - 5.0 - 1.0));
  CHECK(near(self.at("a"), 3.0));
  CHECK(near(self.at("b"), 3.0));
  CHECK(near(self.at("c"), 0.5));
  CHECK(near(self.at("d"), 0.5));

  SpanLog merged;
  merged.add("x", 2, -1, 0.0, 1.0);
  merged.append(log);
  CHECK(merged.spans()[2].parent == 1);  // re-based onto the merged log
  CHECK(merged.spans()[0].parent == -1);
}

}  // namespace

int main() {
  test_percentile();
  test_quartiles();
  test_reportable_percentile();
  test_per_op();
  test_seed_replay();
  test_self_times();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
