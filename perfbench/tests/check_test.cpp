// Fault-injection test of the benchmark's result check: results built from
// the reference join pass; a dropped, duplicated or foreign pair, or a
// result with a wrong payload or timestamp, must each be rejected.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "inputs.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

Result MakeResult(const Input& in, uint64_t pair) {
  Result m;
  m.r_seq = pair >> 32;
  m.s_seq = pair & 0xFFFFFFFFull;
  m.r = in.r[m.r_seq];
  m.s = in.s[m.s_seq];
  m.ts = std::max(in.r_ts[m.r_seq], in.s_ts[m.s_seq]);
  return m;
}

// Feeds `results` to a fresh check and compares with `expected`.
ResultCheck::Verdict Run(const Input& in, const std::vector<Result>& results,
                         const std::vector<uint64_t>& expected) {
  ResultCheck check(&in);
  for (const Result& m : results) check.Add(m);
  return check.Compare(expected);
}

// Brute-force join over push order, to cross-check the bucketed reference.
std::vector<uint64_t> NaiveJoin(const Input& in, PredDef pred, WindowDef w) {
  std::vector<uint64_t> out;
  for (std::size_t ri = 0; ri < in.per_stream; ++ri) {
    for (std::size_t si = 0; si < in.per_stream; ++si) {
      if (!pred.Matches(in.r[ri], in.s[si])) continue;
      const bool r_later = in.RPos(ri) > in.SPos(si);
      bool live;
      if (w.time) {
        live = r_later ? in.s_ts[si] + w.size >= in.r_ts[ri]
                       : in.r_ts[ri] + w.size >= in.s_ts[si];
      } else {
        // Tuples of the earlier side pushed before the later tuple.
        std::size_t pushed = 0;
        const std::size_t later_pos = r_later ? in.RPos(ri) : in.SPos(si);
        for (std::size_t k = 0; k < in.per_stream; ++k) {
          if ((r_later ? in.SPos(k) : in.RPos(k)) < later_pos) ++pushed;
        }
        const std::size_t seq = r_later ? si : ri;
        live = static_cast<int64_t>(seq) >= static_cast<int64_t>(pushed) - w.size;
      }
      if (live) out.push_back(PackPair(ri, si));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

int main() {
  // Small domain so the windows produce plenty of pairs.
  const int64_t domain = 40;
  for (std::size_t span : {std::size_t{1}, std::size_t{8}}) {
    const Input in = GenerateInput(7, 256, span, 5, domain);
    for (PredDef pred : {PredDef{JoinPred::kBand, 3}, PredDef{JoinPred::kEqui, 0}}) {
      for (WindowDef w : {WindowDef{false, 20}, WindowDef{true, 300}}) {
        const std::vector<uint64_t> expected = ReferenceJoin(in, pred, w, domain);
        Expect(expected == NaiveJoin(in, pred, w),
               "bucketed reference equals the brute-force join");
        Expect(expected.size() > 10, "workload yields pairs");
        std::vector<Result> good;
        for (uint64_t p : expected) good.push_back(MakeResult(in, p));
        Expect(Run(in, good, expected).ok(), "exact results pass");

        std::vector<Result> dropped = good;
        dropped.erase(dropped.begin() + 3);
        const auto v_drop = Run(in, dropped, expected);
        Expect(!v_drop.ok() && v_drop.missing == 1 && v_drop.failed_tuples == 2,
               "dropped pair is caught");

        std::vector<Result> dup = good;
        dup.push_back(good[5]);
        const auto v_dup = Run(in, dup, expected);
        Expect(!v_dup.ok() && v_dup.extra == 1, "duplicated pair is caught");

        // Foreign pair: real tuples that do not join, and out-of-range seqs.
        uint64_t foreign = 0;
        for (uint64_t r = 0; r < in.per_stream && foreign == 0; ++r) {
          const uint64_t p = PackPair(r, 0);
          if (!std::binary_search(expected.begin(), expected.end(), p)) foreign = p;
        }
        std::vector<Result> extra = good;
        extra.push_back(MakeResult(in, foreign));
        Expect(Run(in, extra, expected).extra == 1, "foreign pair is caught");
        std::vector<Result> outside = good;
        Result bogus = good[0];
        bogus.r_seq = in.per_stream + 9;
        outside.push_back(bogus);
        const auto v_out = Run(in, outside, expected);
        Expect(!v_out.ok() && v_out.extra == 1 && v_out.bad_payload == 1,
               "pair outside the input is caught");

        std::vector<Result> wrong = good;
        wrong[2].r.z.Assign("r-not-the-payload");
        Expect(Run(in, wrong, expected).bad_payload == 1, "wrong R payload is caught");
        wrong = good;
        wrong[4].s.c += 1.0;
        Expect(Run(in, wrong, expected).bad_payload == 1, "wrong S payload is caught");
        wrong = good;
        wrong[6].ts += 1;
        Expect(Run(in, wrong, expected).bad_payload == 1, "wrong ts is caught");
      }
    }
  }
  if (failures == 0) std::printf("check_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
