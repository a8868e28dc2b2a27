// Seeded input generation and the benchmark's own reference join.
//
// Everything here is independent of the engine: the generator is a local
// SplitMix64, and the reference join re-derives the expected result
// multiset from the generated tuples and the window definitions alone. Only
// the tuple types (RTuple/STuple) and ResultMsg are shared with the library,
// because they are what the public API consumes and delivers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/schema.hpp"
#include "common/types.hpp"
#include "stream/message.hpp"

namespace perfbench {

using sjoin::RTuple;
using sjoin::STuple;
using sjoin::Timestamp;
using Result = sjoin::ResultMsg<RTuple, STuple>;

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [1, domain].
  int32_t Key(int64_t domain) {
    return static_cast<int32_t>(1 + Next() % static_cast<uint64_t>(domain));
  }

 private:
  uint64_t state_;
};

enum class JoinPred { kBand, kEqui };

/// The join condition the reference evaluates: |r.x - s.a| <= band and
/// |r.y - s.b| <= band for the paper's band join, r.x == s.a for equi.
struct PredDef {
  JoinPred kind = JoinPred::kBand;
  int32_t band = 10;

  bool Matches(const RTuple& r, const STuple& s) const {
    if (kind == JoinPred::kEqui) return r.x == s.a;
    const float fb = static_cast<float>(band);
    return r.x >= s.a - band && r.x <= s.a + band && r.y >= s.b - fb &&
           r.y <= s.b + fb;
  }
  int32_t key_reach() const { return kind == JoinPred::kEqui ? 0 : band; }
};

/// Sliding window of one side: the last `size` tuples (count) or every
/// tuple with ts + size >= t of the arriving tuple (time, microseconds).
struct WindowDef {
  bool time = false;
  int64_t size = 0;
};

/// One workload's input. Both streams have `per_stream` tuples and are
/// pushed in alternating runs of `span` tuples: R[0, span), S[0, span),
/// R[span, 2 span), ... Position p of the push order is chunk p / span;
/// even chunks are R, odd chunks S. Timestamps are `period_us` apart in
/// push order.
struct Input {
  std::size_t per_stream = 0;
  std::size_t span = 1;
  int64_t period_us = 1;
  std::vector<RTuple> r;
  std::vector<STuple> s;
  std::vector<Timestamp> r_ts, s_ts;

  std::size_t positions() const { return 2 * per_stream; }
  std::size_t chunks() const { return positions() / span; }
  std::size_t RPos(std::size_t i) const {
    return 2 * (i / span) * span + i % span;
  }
  std::size_t SPos(std::size_t i) const {
    return (2 * (i / span) + 1) * span + i % span;
  }
};

inline void FormatPayload(char tag, uint64_t bits, char* out) {
  std::snprintf(out, 20, "%c%016llx", tag, static_cast<unsigned long long>(bits));
}

/// Draws `per_stream` tuples per side from `seed`. Keys are uniform in
/// [1, key_domain] (x/a and the float band columns y/b alike), payloads are
/// seeded hashes so a delivered tuple can be told apart from any other.
inline Input GenerateInput(uint64_t seed, std::size_t per_stream,
                           std::size_t span, int64_t period_us,
                           int64_t key_domain) {
  Input in;
  in.per_stream = per_stream;
  in.span = span;
  in.period_us = period_us;
  in.r.resize(per_stream);
  in.s.resize(per_stream);
  in.r_ts.resize(per_stream);
  in.s_ts.resize(per_stream);
  SplitMix64 rng(seed * 0x2545F4914F6CDD1Dull + 1);
  char buf[20];
  for (std::size_t i = 0; i < per_stream; ++i) {
    RTuple& r = in.r[i];
    r.x = rng.Key(key_domain);
    r.y = static_cast<float>(rng.Key(key_domain));
    FormatPayload('r', rng.Next(), buf);
    r.z.Assign(buf);
    in.r_ts[i] = static_cast<Timestamp>(in.RPos(i)) * period_us;

    STuple& s = in.s[i];
    s.a = rng.Key(key_domain);
    s.b = static_cast<float>(rng.Key(key_domain));
    const uint64_t bits = rng.Next();
    s.c = static_cast<double>(bits >> 11) * 0x1.0p-53;
    s.d = (bits & 1) != 0;
    in.s_ts[i] = static_cast<Timestamp>(in.SPos(i)) * period_us;
  }
  return in;
}

inline uint64_t PackPair(uint64_t r_seq, uint64_t s_seq) {
  return (r_seq << 32) | (s_seq & 0xFFFFFFFFull);
}

/// Expected result multiset, as sorted packed (r_seq, s_seq) pairs: every
/// pair whose earlier tuple is still in its window when the later one is
/// pushed. Each side keeps one bucket of sequence numbers per key value;
/// a probe walks the buckets within the predicate's key reach, skipping
/// expired entries (liveness is monotone in seq, so a per-bucket head
/// index suffices).
inline std::vector<uint64_t> ReferenceJoin(const Input& in, PredDef pred,
                                           WindowDef window,
                                           int64_t key_domain) {
  const std::size_t keys = static_cast<std::size_t>(key_domain) + 1;
  std::vector<std::vector<uint32_t>> r_buckets(keys), s_buckets(keys);
  std::vector<uint32_t> r_head(keys, 0), s_head(keys, 0);
  std::vector<uint64_t> out;

  auto live = [&](const std::vector<Timestamp>& ts, uint32_t seq,
                  std::size_t pushed, Timestamp now) {
    if (window.time) return ts[seq] + window.size >= now;
    return static_cast<int64_t>(seq) >=
           static_cast<int64_t>(pushed) - window.size;
  };

  // `probe_key` from the arriving tuple; walks the other side's buckets.
  auto probe = [&](int32_t probe_key, std::vector<std::vector<uint32_t>>& b,
                   std::vector<uint32_t>& head,
                   const std::vector<Timestamp>& other_ts, std::size_t pushed,
                   Timestamp now, auto&& emit) {
    const int64_t lo = std::max<int64_t>(1, probe_key - pred.key_reach());
    const int64_t hi = std::min<int64_t>(key_domain, probe_key + pred.key_reach());
    for (int64_t k = lo; k <= hi; ++k) {
      auto& bucket = b[static_cast<std::size_t>(k)];
      uint32_t& h = head[static_cast<std::size_t>(k)];
      while (h < bucket.size() && !live(other_ts, bucket[h], pushed, now)) ++h;
      for (std::size_t j = h; j < bucket.size(); ++j) emit(bucket[j]);
    }
  };

  std::size_t r_pushed = 0, s_pushed = 0;
  for (std::size_t c = 0; c < in.chunks(); ++c) {
    const std::size_t first = (c / 2) * in.span;
    for (std::size_t i = first; i < first + in.span; ++i) {
      if (c % 2 == 0) {
        const RTuple& r = in.r[i];
        probe(r.x, s_buckets, s_head, in.s_ts, s_pushed, in.r_ts[i],
              [&](uint32_t s_seq) {
                if (pred.Matches(r, in.s[s_seq])) out.push_back(PackPair(i, s_seq));
              });
        r_buckets[static_cast<std::size_t>(r.x)].push_back(
            static_cast<uint32_t>(i));
        ++r_pushed;
      } else {
        const STuple& s = in.s[i];
        probe(s.a, r_buckets, r_head, in.r_ts, r_pushed, in.s_ts[i],
              [&](uint32_t r_seq) {
                if (pred.Matches(in.r[r_seq], s)) out.push_back(PackPair(r_seq, i));
              });
        s_buckets[static_cast<std::size_t>(s.a)].push_back(
            static_cast<uint32_t>(i));
        ++s_pushed;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Records delivered results and compares them with the reference.
/// Add() runs in the result handler: it checks each result's payloads and
/// timestamp against the generated input and keeps the (r_seq, s_seq) pair.
class ResultCheck {
 public:
  explicit ResultCheck(const Input* in) : in_(in) {}

  void Add(const Result& m) {
    const uint64_t pair = PackPair(m.r_seq, m.s_seq);
    pairs_.push_back(pair);
    if (!PayloadMatches(m)) bad_.push_back(pair);
  }

  std::size_t delivered() const { return pairs_.size(); }

  /// Forgets every recorded result, keeping the buffers for the next round.
  void Clear() {
    pairs_.clear();
    bad_.clear();
  }

  /// The delivered pairs, sorted.
  const std::vector<uint64_t>& Sorted() {
    std::sort(pairs_.begin(), pairs_.end());
    return pairs_;
  }

  struct Verdict {
    uint64_t delivered = 0;
    uint64_t expected = 0;
    uint64_t missing = 0;      ///< expected pairs never delivered
    uint64_t extra = 0;        ///< duplicates and pairs not expected at all
    uint64_t bad_payload = 0;  ///< payload or ts differs from the input
    uint64_t failed_tuples = 0;  ///< distinct input tuples in any bad pair
    bool ok() const { return missing == 0 && extra == 0 && bad_payload == 0; }
  };

  /// Exact multiset comparison against sorted `expected`.
  Verdict Compare(const std::vector<uint64_t>& expected) {
    Sorted();
    Verdict v;
    v.delivered = pairs_.size();
    v.expected = expected.size();
    std::vector<uint64_t> wrong = bad_;
    v.bad_payload = bad_.size();
    std::size_t i = 0, j = 0;
    while (i < pairs_.size() || j < expected.size()) {
      if (j == expected.size() ||
          (i < pairs_.size() && pairs_[i] < expected[j])) {
        ++v.extra;
        wrong.push_back(pairs_[i++]);
      } else if (i == pairs_.size() || expected[j] < pairs_[i]) {
        ++v.missing;
        wrong.push_back(expected[j++]);
      } else {
        ++i;
        ++j;
      }
    }
    // Tuples are keyed (side, seq): R in the upper half of the id space.
    std::vector<uint64_t> tuples;
    tuples.reserve(2 * wrong.size());
    for (uint64_t p : wrong) {
      tuples.push_back((1ull << 63) | (p >> 32));
      tuples.push_back(p & 0xFFFFFFFFull);
    }
    std::sort(tuples.begin(), tuples.end());
    v.failed_tuples = static_cast<uint64_t>(
        std::unique(tuples.begin(), tuples.end()) - tuples.begin());
    return v;
  }

 private:
  bool PayloadMatches(const Result& m) const {
    if (m.r_seq >= in_->per_stream || m.s_seq >= in_->per_stream) return false;
    const RTuple& r = in_->r[m.r_seq];
    const STuple& s = in_->s[m.s_seq];
    const Timestamp ts = std::max(in_->r_ts[m.r_seq], in_->s_ts[m.s_seq]);
    return m.r.x == r.x && std::memcmp(&m.r.y, &r.y, sizeof(float)) == 0 &&
           m.r.z.view() == r.z.view() && m.s.a == s.a &&
           std::memcmp(&m.s.b, &s.b, sizeof(float)) == 0 &&
           std::memcmp(&m.s.c, &s.c, sizeof(double)) == 0 && m.s.d == s.d &&
           m.ts == ts;
  }

  const Input* in_;
  std::vector<uint64_t> pairs_;
  std::vector<uint64_t> bad_;
};

}  // namespace perfbench
