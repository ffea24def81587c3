// Measurement helpers shared by the benchmark binary and its self-tests:
// percentiles and quartiles, the sample-count rule for reporting a tail,
// per-op counter diffs, seeded op streams, and an in-memory span log.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- order statistics ----------------------------------------------------

// Percentile `p` in [0,100] by linear interpolation between closest ranks
// (the "linear" method of numpy).  0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

// First and third quartile the way Python's statistics.quantiles(v, n=4)
// computes them (its default "exclusive" method), so the benchmark's own
// spread figures match the ones its acceptance rule computes.  Needs at
// least two values; fewer give {v0, v0}.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  const auto ld = static_cast<long long>(v.size());
  const long long m = ld + 1;
  double out[3];
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {out[0], out[1], out[2]};
}

// Inter-quartile distance as a share of the median (0 when the median is 0).
inline double iqr_share(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  const double med = median(v);
  return med == 0.0 ? 0.0 : (q.q3 - q.q1) / med;
}

// The highest of the usual reporting percentiles that still has at least
// ten samples beyond it in a sample of `n`; 0 when even the median does not.
inline double highest_reportable_percentile(std::size_t n) {
  static const double kCandidates[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kCandidates) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

// ---- counters ------------------------------------------------------------

using Counters = std::map<std::string, double>;

// (after - before) / ops for every counter present in both snapshots.
inline Counters per_op(const Counters& before, const Counters& after,
                       std::uint64_t ops) {
  Counters out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    if (it == before.end()) continue;
    out[name] = ops == 0 ? 0.0 : (value - it->second) / static_cast<double>(ops);
  }
  return out;
}

// ---- seeding -------------------------------------------------------------

inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Derive an independent seed for one consumer (`stream`, `index`) of the
// workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                 std::uint64_t index = 0) {
  return mix64(mix64(mix64(seed) ^ stream) ^ index);
}

// A client's op sequence: indices uniform in [0, n), replayed exactly by
// the same (seed, client).
class OpStream {
 public:
  OpStream(std::uint64_t seed, std::uint64_t client, std::uint64_t n)
      : state_(derive_seed(seed, 0x6f70 /* "op" */, client)), n_(n) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    // Lemire's multiply-shift: unbiased enough for n far below 2^32.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(z) * n_) >> 64);
  }

 private:
  std::uint64_t state_;
  std::uint64_t n_;
};

// Deterministic pseudo-random bytes for write payloads.
inline std::vector<std::uint8_t> seeded_bytes(std::uint64_t seed,
                                              std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = mix64(s++);
    for (std::size_t b = 0; b < 8 && i + b < n; ++b) {
      out[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
  return out;
}

// ---- spans ---------------------------------------------------------------

// One timed interval: name, start and end (seconds on the steady clock),
// the request it belongs to, and the index of the span that caused it in
// the same log (-1 for a root).
struct Span {
  const char* name = "";
  std::uint64_t trace = 0;
  std::int64_t parent = -1;
  double start = 0.0;
  double end = 0.0;
};

class SpanLog {
 public:
  std::int64_t add(const char* name, std::uint64_t trace, std::int64_t parent,
                   double start, double end) {
    spans_.push_back(Span{name, trace, parent, start, end});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void set_end(std::int64_t index, double end) {
    spans_[static_cast<std::size_t>(index)].end = end;
  }
  void append(const SpanLog& other) {
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Self time per span name: each span's duration minus the part of it its
// children cover (children may overlap one another; their union counts).
inline std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[s.name] += (s.end - s.start) - covered;
  }
  return out;
}

}  // namespace perfbench
