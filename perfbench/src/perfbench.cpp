// End-to-end benchmark of the public session API.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one named workload through JoinSession / ShardedJoinSession, fed
// from the calling thread the way an application feeds it, checks every
// delivered result against the reference join of inputs.hpp, and prints
// one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// once untraced and once with every public call timed, then the pipeline
// and store replays of replay.hpp, and reports the per-layer metrics plus
// the tracing overhead. Trace spans are kept in memory and written to
// .bench_trace/ under the working directory when the run ends.
// See perfbench/README.md for the workloads and the metric map.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/simd.hpp"
#include "core/join_session.hpp"
#include "core/sharded_session.hpp"
#include "inputs.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

using sjoin::NowNs;

enum class Engine { kLlhj, kHsj, kShardedLlhj };

struct Spec {
  const char* name;
  Engine engine;
  PredDef pred;
  WindowDef window;
  int64_t key_domain;
  std::size_t span;       ///< tuples per push call (1 = per-tuple pushes)
  double rate;            ///< paced tuples/s per stream; 0 = closed loop
  std::size_t prefill;    ///< tuples per stream pushed before timing
  std::size_t measured;   ///< closed loop: timed tuples per stream per round
  int nodes;              ///< node threads per session (or per shard)
  int shards;
  /// Node thread placement (JoinConfig::placement). The closed-loop
  /// workloads leave their threads unpinned; README.md says why.
  sjoin::PlacementPolicy placement;
  bool threaded = true;   ///< false: the session advances the pipeline inline
};

// Make-up of each workload; README.md explains the choices.
const Spec kSpecs[] = {
    {"band_paced", Engine::kLlhj, {JoinPred::kBand, 10}, {true, 1'000'000},
     600, 1, 5'000.0, 5'000, 0, 2, 1, sjoin::PlacementPolicy::kAuto},
    {"band_maxrate", Engine::kLlhj, {JoinPred::kBand, 10}, {false, 20'000},
     10'000, 64, 0.0, 20'000, 60'000, 2, 1, sjoin::PlacementPolicy::kNone},
    {"equi_sharded", Engine::kShardedLlhj, {JoinPred::kEqui, 0},
     {false, 20'000}, 20'000, 64, 0.0, 20'000, 240'000, 1, 2,
     sjoin::PlacementPolicy::kNone},
    {"hsj_band_maxrate", Engine::kHsj, {JoinPred::kBand, 10}, {false, 20'000},
     10'000, 64, 0.0, 20'000, 60'000, 2, 1, sjoin::PlacementPolicy::kNone},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool threaded = true;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Latency histogram with log-linear buckets: values below 128 ns exactly,
/// above that 128 buckets per power of two, so a bucket spans under 0.8 %
/// of its values (17 KiB). Fixed size, so recording allocates nothing.
/// Quantiles interpolate by rank inside the bucket that holds them.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kSub * (kOctaves + 1), 0) {}

  void Add(int64_t ns) {
    ++counts_[Index(static_cast<uint64_t>(std::max<int64_t>(ns, 0)))];
    ++total_;
  }
  uint64_t count() const { return total_; }

  void Merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  /// The q-quantile in nanoseconds; 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    uint64_t below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const uint64_t c = counts_[i];
      if (c == 0) continue;
      if (static_cast<double>(below + c) > rank) {
        const double frac = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(c);
        return Lower(i) + (Lower(i + 1) - Lower(i)) * std::min(1.0, frac);
      }
      below += c;
    }
    return Lower(counts_.size());
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kOctaves = 32;  // up to 2^39 ns, ~9 min

  static std::size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    const std::size_t i = (static_cast<std::size_t>(shift) + 1) * kSub +
                          static_cast<std::size_t>(v >> shift) - kSub;
    return std::min(i, kSub * (kOctaves + 1) - 1);
  }
  static double Lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    return std::ldexp(static_cast<double>(kSub + i % kSub),
                      static_cast<int>(i / kSub) - 1);
  }

  std::vector<uint32_t> counts_;
  uint64_t total_ = 0;
};

/// Latencies of a round, split by the stream of the pair's later input:
/// [0] R later, [1] S later.
using StreamLatency = std::array<LatencyHistogram, 2>;

/// Quantile q of the slower stream, in milliseconds.
double SlowerStreamMs(const StreamLatency& latency, double q) {
  return std::max(latency[0].Quantile(q), latency[1].Quantile(q)) / 1e6;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Tracing: spans around public calls, kept in memory.
// ---------------------------------------------------------------------------

struct Span {
  uint32_t id;
  uint32_t parent;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 200'000;

  uint32_t Record(const char* name, uint32_t parent, int64_t start,
                  int64_t end) {
    const uint32_t id = next_id_++;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{id, parent, name, start, end});
    } else {
      ++dropped_;
    }
    return id;
  }

  /// Sets the end of span `id`, recorded earlier with end 0.
  void Close(uint32_t id, int64_t end) {
    if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = end;
  }

  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   s.id, s.parent, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    if (dropped_ > 0) {
      std::fprintf(f, "{\"dropped_spans\":%llu}\n",
                   static_cast<unsigned long long>(dropped_));
    }
    std::fclose(f);
  }

  // Counts taken at the same boundaries as the spans.
  int64_t start_ns = 0;
  int64_t push_ns = 0;
  uint64_t push_tuples = 0;
  std::vector<double> push_call_us;
  int64_t poll_ns = 0;
  uint64_t poll_calls = 0;
  uint64_t poll_results = 0;
  std::vector<double> finish_ms;
  double backlog_sum = 0;
  uint64_t backlog_max = 0;
  uint64_t backlog_samples = 0;
  std::vector<double> shard_skew;

 private:
  std::vector<Span> spans_;
  uint32_t next_id_ = 1;
  uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Result handler: latency from the later input's due time, payload check.
// ---------------------------------------------------------------------------

class Handler : public sjoin::OutputHandler<RTuple, STuple> {
 public:
  Handler(const Input* in, ResultCheck* check, const std::vector<int64_t>* due,
          StreamLatency* latency)
      : in_(in), check_(check), due_(due), latency_(latency) {}

  void OnResult(const Result& m) override {
    const int64_t now = NowNs();
    check_->Add(m);
    if (m.r_seq >= in_->per_stream || m.s_seq >= in_->per_stream) return;
    const std::size_t r_pos = in_->RPos(m.r_seq);
    const std::size_t s_pos = in_->SPos(m.s_seq);
    const std::size_t later = std::max(r_pos, s_pos);
    const int64_t due = (*due_)[later / in_->span];
    if (due == 0) return;  // prefill: not timed
    if (now < due) ++early_;
    (*latency_)[r_pos > s_pos ? 0 : 1].Add(now - due);
  }

  uint64_t early() const { return early_; }

 private:
  const Input* in_;
  ResultCheck* check_;
  const std::vector<int64_t>* due_;
  StreamLatency* latency_;
  uint64_t early_ = 0;
};

// ---------------------------------------------------------------------------
// Session adapters: one JoinSession or one ShardedJoinSession.
// ---------------------------------------------------------------------------

sjoin::WindowSpec ToWindowSpec(const WindowDef& w) {
  return w.time ? sjoin::WindowSpec::Time(w.size)
                : sjoin::WindowSpec::Count(w.size);
}

int64_t LiveTuplesPerSide(const Spec& spec) {
  if (!spec.window.time) return spec.window.size;
  return static_cast<int64_t>(spec.rate * static_cast<double>(spec.window.size) /
                              1e6);
}

sjoin::JoinConfig SessionConfig(const Spec& spec) {
  sjoin::JoinConfig config;
  config.threaded = spec.threaded;
  config.placement = spec.placement;
  config.algorithm = spec.engine == Engine::kHsj ? sjoin::Algorithm::kHandshake
                                                 : sjoin::Algorithm::kLowLatency;
  config.parallelism = spec.nodes;
  config.window_r = ToWindowSpec(spec.window);
  config.window_s = ToWindowSpec(spec.window);
  if (spec.engine == Engine::kHsj && spec.window.time) {
    config.hsj_window_tuples_hint = LiveTuplesPerSide(spec);
  }
  return config;
}

template <typename Pred>
struct Single {
  using Session = sjoin::JoinSession<RTuple, STuple, Pred>;
  static std::unique_ptr<Session> Make(const Spec& spec, Handler* handler) {
    auto s = std::make_unique<Session>(SessionConfig(spec));
    s->AddQuery(Pred{}, handler);
    return s;
  }
  static bool HasBacklog() { return true; }
  static std::size_t Backlog(const Session& s) { return s.ingest_backlog(); }
  static double ShardSkew(const Session&) { return 1.0; }
  static bool ShardSumMatches(const Session&, uint64_t) { return true; }
};

struct Sharded {
  using Session = sjoin::ShardedJoinSession<RTuple, STuple, sjoin::EquiPredicate>;
  static std::unique_ptr<Session> Make(const Spec& spec, Handler* handler) {
    sjoin::ShardedJoinConfig config;
    config.shard = SessionConfig(spec);
    config.shards = spec.shards;
    auto s = std::make_unique<Session>(config);
    s->AddQuery(sjoin::EquiPredicate{}, handler);
    return s;
  }
  static bool HasBacklog() { return false; }
  static std::size_t Backlog(const Session&) { return 0; }
  static double ShardSkew(const Session& s) {
    double sum = 0, max = 0;
    for (int k = 0; k < s.shard_count(); ++k) {
      const double n = static_cast<double>(s.shard_results(k));
      sum += n;
      max = std::max(max, n);
    }
    return sum > 0 ? max * s.shard_count() / sum : 0.0;
  }
  static bool ShardSumMatches(const Session& s, uint64_t delivered) {
    uint64_t sum = 0;
    for (int k = 0; k < s.shard_count(); ++k) sum += s.shard_results(k);
    return sum == delivered;
  }
};

// ---------------------------------------------------------------------------
// One pass: a paced session, or closed-loop rounds of fresh sessions.
// ---------------------------------------------------------------------------

// A round's outcome. Only the first round keeps its results until the
// reference is computed; every later round records into one reused check
// and is compared with the first right after it ends (same input, so the
// same multiset is expected). The benchmark's own memory therefore stops
// growing after the second round, however many rounds a run makes, and the
// process's peak resident memory is the program's.
struct Round {
  std::unique_ptr<ResultCheck> check;  ///< first round only
  ResultCheck::Verdict verdict;        ///< later rounds: against the first
  uint64_t shed = 0;
  uint64_t lost = 0;
  uint64_t anomalies = 0;
  uint64_t early = 0;
  bool shard_sum_ok = true;
};

// A closed-loop pass runs rounds of the same input until its time is up;
// the first round is a warm-up (first touch of the process's memory, cold
// caches, first thread placement) and only checked. A paced pass is one
// round after its own prefill and settle time, and all of it counts.
struct PassOut {
  double setup_s = 0;
  std::vector<double> tuples_per_s;           ///< per stream, one per round
  std::vector<StreamLatency> round_latency;  ///< one per round
  std::vector<double> send_lag_ms;
  std::vector<Round> rounds;
  uint64_t attempted = 0;
};

template <typename Adapter>
class Pass {
 public:
  using Session = typename Adapter::Session;

  Pass(const Spec& spec, const Input& in, Tracer* tracer)
      : spec_(spec), in_(in), tracer_(tracer) {}

  PassOut Run(double seconds) {
    const int64_t start = NowNs();
    do {
      RunRound();
    } while (spec_.rate == 0 &&
             (out_.rounds.size() < 2 ||
              static_cast<double>(NowNs() - start) < seconds * 1e9));
    return std::move(out_);
  }

 private:
  // Pushes chunk `c` of the input (one span of one side) and polls.
  void PushChunk(Session& session, std::size_t c, uint32_t round_span) {
    const std::size_t first = (c / 2) * in_.span;
    const int64_t t0 = tracer_ != nullptr ? NowNs() : 0;
    if (in_.span == 1) {
      if (c % 2 == 0) {
        session.PushR(in_.r[first], in_.r_ts[first]);
      } else {
        session.PushS(in_.s[first], in_.s_ts[first]);
      }
    } else if (c % 2 == 0) {
      session.PushR(std::span<const RTuple>(&in_.r[first], in_.span),
                    std::span<const Timestamp>(&in_.r_ts[first], in_.span));
    } else {
      session.PushS(std::span<const STuple>(&in_.s[first], in_.span),
                    std::span<const Timestamp>(&in_.s_ts[first], in_.span));
    }
    if (tracer_ != nullptr) {
      const int64_t t1 = NowNs();
      tracer_->Record(c % 2 == 0 ? "push_r" : "push_s", round_span, t0, t1);
      if (c >= prefill_chunks()) {
        tracer_->push_ns += t1 - t0;
        tracer_->push_tuples += in_.span;
        tracer_->push_call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        if (Adapter::HasBacklog()) {
          const std::size_t b = Adapter::Backlog(session);
          tracer_->backlog_sum += static_cast<double>(b);
          tracer_->backlog_max = std::max<uint64_t>(tracer_->backlog_max, b);
          ++tracer_->backlog_samples;
        }
      }
    }
  }

  void Poll(Session& session, ResultCheck& check, uint32_t round_span) {
    if (tracer_ == nullptr) {
      session.Poll();
      return;
    }
    const std::size_t before = check.delivered();
    const int64_t t0 = NowNs();
    session.Poll();
    const int64_t t1 = NowNs();
    const std::size_t got = check.delivered() - before;
    tracer_->poll_ns += t1 - t0;
    ++tracer_->poll_calls;
    tracer_->poll_results += got;
    if (got > 0) tracer_->Record("poll", round_span, t0, t1);
  }

  static constexpr int64_t kSettleNs = 200'000'000;

  std::size_t prefill_chunks() const { return 2 * spec_.prefill / in_.span; }

  void RunRound() {
    const bool first_round = out_.rounds.empty();
    Round round;
    ResultCheck* check = nullptr;
    if (first_round) {
      round.check = std::make_unique<ResultCheck>(&in_);
      check = round.check.get();
    } else {
      if (reused_check_ == nullptr) {
        reused_check_ = std::make_unique<ResultCheck>(&in_);
      }
      reused_check_->Clear();
      check = reused_check_.get();
    }
    due_.assign(in_.chunks(), 0);
    out_.round_latency.emplace_back();
    Handler handler(&in_, check, &due_, &out_.round_latency.back());
    const uint32_t round_span = tracer_ != nullptr
                                    ? tracer_->Record("round", 0, NowNs(), 0)
                                    : 0;

    // The caller keeps the CPU a kAuto plan gives the feeder, also when
    // the nodes are unpinned (see CallerPin).
    const sjoin::PlacementPlan plan =
        SessionPlan(spec_.nodes, sjoin::PlacementPolicy::kAuto);
    const int64_t t_construct = NowNs();
    std::unique_ptr<Session> session = Adapter::Make(spec_, &handler);
    PushChunk(*session, 0, round_span);
    const int64_t t_first_return = NowNs();
    CallerPin pin(plan);
    if (first_round) {
      out_.setup_s = static_cast<double>(t_first_return - t_construct) / 1e9;
    }
    if (tracer_ != nullptr && first_round) {
      tracer_->start_ns = t_first_return - t_construct;
      tracer_->Record("start", round_span, t_construct, t_first_return);
    }
    Poll(*session, *check, round_span);
    for (std::size_t c = 1; c < prefill_chunks(); ++c) {
      PushChunk(*session, c, round_span);
      Poll(*session, *check, round_span);
    }

    int64_t t_first = 0;
    if (spec_.rate > 0) {
      // The prefill went in at full speed: let the pipeline work it off
      // before the schedule starts, so no timed tuple queues behind it.
      const int64_t settled = NowNs() + kSettleNs;
      while (NowNs() < settled || Adapter::Backlog(*session) > 0) {
        Poll(*session, *check, round_span);
      }
      // Open loop: tuple k of the timed phase is due at t0 + k * period.
      const int64_t period_ns =
          static_cast<int64_t>(1e9 / (2.0 * spec_.rate) + 0.5);
      const int64_t t0 = NowNs() + 1'000'000;
      for (std::size_t c = prefill_chunks(); c < in_.chunks(); ++c) {
        due_[c] = t0 + static_cast<int64_t>(c - prefill_chunks()) * period_ns;
      }
      t_first = t0;
      out_.send_lag_ms.reserve(in_.chunks() - prefill_chunks());
      for (std::size_t c = prefill_chunks(); c < in_.chunks(); ++c) {
        while (NowNs() < due_[c]) Poll(*session, *check, round_span);
        out_.send_lag_ms.push_back(static_cast<double>(NowNs() - due_[c]) / 1e6);
        PushChunk(*session, c, round_span);
      }
    } else {
      // Closed loop: each span is due when its push call starts.
      t_first = NowNs();
      for (std::size_t c = prefill_chunks(); c < in_.chunks(); ++c) {
        due_[c] = NowNs();
        PushChunk(*session, c, round_span);
        Poll(*session, *check, round_span);
      }
    }
    const int64_t t_finish = NowNs();
    session->FinishInput();
    const int64_t t_end = NowNs();
    if (tracer_ != nullptr) {
      tracer_->finish_ms.push_back(static_cast<double>(t_end - t_finish) / 1e6);
      tracer_->Record("finish", round_span, t_finish, t_end);
      tracer_->shard_skew.push_back(Adapter::ShardSkew(*session));
      tracer_->Close(round_span, t_end);
    }
    const double timed_per_stream =
        static_cast<double>(in_.per_stream - spec_.prefill);
    out_.tuples_per_s.push_back(timed_per_stream /
                                (static_cast<double>(t_end - t_first) / 1e9));

    round.shed = session->tuples_shed(sjoin::StreamSide::kR) +
                 session->tuples_shed(sjoin::StreamSide::kS);
    round.lost = session->tuples_lost_reported(sjoin::StreamSide::kR) +
                 session->tuples_lost_reported(sjoin::StreamSide::kS);
    round.anomalies = session->pipeline_anomalies();
    round.early = handler.early();
    round.shard_sum_ok = Adapter::ShardSumMatches(*session, check->delivered());
    session.reset();
    if (!first_round) {
      round.verdict = check->Compare(out_.rounds.front().check->Sorted());
    }
    out_.attempted += 2 * in_.per_stream;
    out_.rounds.push_back(std::move(round));
  }

  const Spec& spec_;
  const Input& in_;
  Tracer* tracer_;
  PassOut out_;
  std::unique_ptr<ResultCheck> reused_check_;  ///< rounds after the first
  std::vector<int64_t> due_;  ///< due time of each chunk; 0 = not timed
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(), v,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void Print(std::FILE* f) const {
    for (const auto& e : entries_) {
      std::fprintf(f, "  %-40s %14.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

struct Verdict {
  bool correct = true;
  uint64_t failed = 0;
};

/// Compares every round of `pass` with the reference and checks the
/// session-level invariants; prints what failed.
Verdict CheckPass(PassOut& pass, const std::vector<uint64_t>& expected,
                  const char* label) {
  Verdict v;
  for (std::size_t i = 0; i < pass.rounds.size(); ++i) {
    Round& round = pass.rounds[i];
    const ResultCheck::Verdict rv =
        i == 0 ? round.check->Compare(expected) : round.verdict;
    const bool ok = rv.ok() && round.shed == 0 && round.lost == 0 &&
                    round.anomalies == 0 && round.early == 0 &&
                    round.shard_sum_ok;
    std::printf("check %s round %zu (%s): delivered %llu expected %llu missing %llu "
                "extra %llu bad_payload %llu shed %llu lost %llu anomalies "
                "%llu early %llu shard_sum %s -> %s\n",
                label, i, i == 0 ? "vs reference" : "vs round 0",
                static_cast<unsigned long long>(rv.delivered),
                static_cast<unsigned long long>(rv.expected),
                static_cast<unsigned long long>(rv.missing),
                static_cast<unsigned long long>(rv.extra),
                static_cast<unsigned long long>(rv.bad_payload),
                static_cast<unsigned long long>(round.shed),
                static_cast<unsigned long long>(round.lost),
                static_cast<unsigned long long>(round.anomalies),
                static_cast<unsigned long long>(round.early),
                round.shard_sum_ok ? "ok" : "MISMATCH", ok ? "ok" : "FAIL");
    if (!ok) v.correct = false;
    v.failed += rv.failed_tuples + round.shed + round.lost;
    // A failure the pair accounting cannot attribute still fails a tuple.
    if (!ok && rv.failed_tuples + round.shed + round.lost == 0) ++v.failed;
  }
  return v;
}

/// Index of the first counted round: all rounds but a closed-loop pass's
/// warm-up.
std::size_t FirstCounted(const PassOut& pass) {
  return pass.tuples_per_s.size() > 1 ? 1 : 0;
}

/// The pass's fastest counted round. Rounds of one run repeat the same
/// work, and the host's other tenants only ever slow a round down (a busy
/// neighbour on a vCPU's core cuts its vector throughput by up to ~1.45x,
/// for seconds to minutes), so the fastest round is the program's own
/// speed while the median moves with how long the host was busy.
double Throughput(const PassOut& pass) {
  const std::vector<double>& t = pass.tuples_per_s;
  if (t.empty()) return 0.0;
  return *std::max_element(t.begin() + FirstCounted(pass), t.end());
}

/// Counted rounds with at least this share of the fastest one's throughput
/// are the ones the host did not slow: its slow phases run at ~0.69 of
/// the fast ones.
constexpr double kFastRoundShare = 0.8;

bool FastRound(const PassOut& pass, std::size_t i) {
  return i >= FirstCounted(pass) &&
         pass.tuples_per_s[i] >= kFastRoundShare * Throughput(pass);
}

/// Every timed result of the fast rounds. In a closed loop a result waits
/// behind a full input channel, so a round's latency scales with the
/// inverse of its throughput and the host's slow phases would move it as
/// they move the median round. A latency quantile of the pass is that of
/// its slower stream: a quantile of the two streams pooled would move with
/// their mix ratio where their latencies differ.
StreamLatency FastRoundLatency(const PassOut& pass) {
  StreamLatency out;
  for (std::size_t i = 0; i < pass.round_latency.size(); ++i) {
    if (!FastRound(pass, i)) continue;
    out[0].Merge(pass.round_latency[i][0]);
    out[1].Merge(pass.round_latency[i][1]);
  }
  return out;
}

void AddEndToEnd(Metrics* m, const PassOut& pass, double peak_rss_mib) {
  m->Add("setup_s", pass.setup_s, "s");
  m->Add("tuples_per_s", Throughput(pass), "tuples/s");
  const StreamLatency latency = FastRoundLatency(pass);
  m->Add("latency_p50_ms", SlowerStreamMs(latency, 0.50), "ms");
  m->Add("latency_p99_ms", SlowerStreamMs(latency, 0.99), "ms");
  m->Add("peak_rss_mb", peak_rss_mib, "MiB");
}

template <typename Pred, bool kHsj>
ReplayOut RunPipelineReplay(const Spec& spec, const Input& in, int shards,
                            int nodes) {
  ReplayPlan plan;
  plan.window = spec.window;
  plan.nodes = nodes;
  plan.shards = shards;
  plan.placement = spec.placement;
  plan.hsj_window_tuples_hint = LiveTuplesPerSide(spec);
  plan.prefill_positions = 2 * spec.prefill;
  if (spec.rate > 0) {
    plan.period_ns = static_cast<int64_t>(1e9 / (2.0 * spec.rate) + 0.5);
    // One second of the paced schedule.
    plan.positions = std::min(in.positions(),
                              plan.prefill_positions +
                                  static_cast<std::size_t>(2 * spec.rate));
  } else {
    // Half a round per stream.
    plan.positions =
        std::min(in.positions(), plan.prefill_positions + spec.measured);
  }
  return PipelineReplay<Pred, kHsj>(in, plan).Run();
}

std::size_t RoundUp(std::size_t n, std::size_t unit) {
  return (n + unit - 1) / unit * unit;
}

template <typename Adapter>
int RunWorkload(const Spec& spec_in, const Args& args) {
  // Whole spans only: both streams push the same number of full spans.
  Spec spec = spec_in;
  spec.prefill = RoundUp(spec.prefill, spec.span);
  spec.measured = RoundUp(spec.measured, spec.span);
  spec.threaded = args.threaded;
  const std::size_t timed_per_stream =
      spec.rate > 0 ? static_cast<std::size_t>(
                          spec.rate * (args.trace ? args.seconds / 2 : args.seconds))
                    : spec.measured;
  const std::size_t per_stream = spec.prefill + timed_per_stream;
  const int64_t period_us =
      spec.rate > 0 ? static_cast<int64_t>(1e6 / (2.0 * spec.rate) + 0.5) : 1;
  const Input in = GenerateInput(args.seed, per_stream, spec.span, period_us,
                                 spec.key_domain);
  std::printf("workload %s seed %llu: %zu tuples/stream (%zu prefill), span "
              "%zu, simd %s\n",
              spec.name, static_cast<unsigned long long>(args.seed), per_stream,
              spec.prefill, spec.span,
              sjoin::ToString(sjoin::ActiveSimdLevel()));

  Metrics metrics;
  Verdict verdict;
  uint64_t attempted = 0;
  if (!args.trace) {
    PassOut pass = Pass<Adapter>(spec, in, nullptr).Run(args.seconds);
    const double rss = PeakRssMiB();
    const std::vector<uint64_t> expected =
        ReferenceJoin(in, spec.pred, spec.window, spec.key_domain);
    verdict = CheckPass(pass, expected, "run");
    attempted = pass.attempted;
    AddEndToEnd(&metrics, pass, rss);
    std::printf("rounds %zu, tuples_per_s per round:", pass.tuples_per_s.size());
    for (double t : pass.tuples_per_s) std::printf(" %.0f", t);
    std::printf("\nlatency p50/p99 ms per round:");
    std::size_t fast = 0;
    for (std::size_t i = 0; i < pass.round_latency.size(); ++i) {
      std::printf(" %.3f/%.3f", SlowerStreamMs(pass.round_latency[i], 0.50),
                  SlowerStreamMs(pass.round_latency[i], 0.99));
      if (FastRound(pass, i)) ++fast;
    }
    std::printf("\nfast rounds (>= %.0f %% of the fastest): %zu of %zu counted\n",
                100 * kFastRoundShare, fast,
                pass.tuples_per_s.size() - FirstCounted(pass));
    const StreamLatency latency = FastRoundLatency(pass);
    std::printf("\n");
    const char* later[2] = {"R", "S"};
    for (int k = 0; k < 2; ++k) {
      std::printf("latency, %s input later: %llu results, p50 %.4f ms, p99 %.4f ms\n",
                  later[k],
                  static_cast<unsigned long long>(latency[k].count()),
                  latency[k].Quantile(0.50) / 1e6,
                  latency[k].Quantile(0.99) / 1e6);
    }
  } else {
    const double half = args.seconds / 2;
    PassOut plain = Pass<Adapter>(spec, in, nullptr).Run(half);
    Tracer tracer;
    PassOut traced = Pass<Adapter>(spec, in, &tracer).Run(half);
    const std::vector<uint64_t> expected =
        ReferenceJoin(in, spec.pred, spec.window, spec.key_domain);
    const Verdict v1 = CheckPass(plain, expected, "untraced");
    const Verdict v2 = CheckPass(traced, expected, "traced");
    verdict.correct = v1.correct && v2.correct;
    verdict.failed = v1.failed + v2.failed;
    attempted = plain.attempted + traced.attempted;

    metrics.Add("core.start_ms", static_cast<double>(tracer.start_ns) / 1e6, "ms");
    metrics.Add("core.push_us_per_tuple",
                tracer.push_tuples > 0 ? static_cast<double>(tracer.push_ns) /
                                             1e3 / tracer.push_tuples
                                       : 0.0,
                "us");
    metrics.Add("core.push_call_p99_us", Quantile(tracer.push_call_us, 0.99), "us");
    metrics.Add("core.poll_us_per_call",
                tracer.poll_calls > 0 ? static_cast<double>(tracer.poll_ns) / 1e3 /
                                            tracer.poll_calls
                                      : 0.0,
                "us");
    metrics.Add("core.results_per_poll",
                tracer.poll_calls > 0 ? static_cast<double>(tracer.poll_results) /
                                            tracer.poll_calls
                                      : 0.0,
                "count");
    metrics.Add("core.finish_ms", Median(tracer.finish_ms), "ms");
    metrics.Add("core.shard_results_max_over_mean", Median(tracer.shard_skew),
                "ratio");
    metrics.Add("gen.send_lag_p99_ms", Quantile(traced.send_lag_ms, 0.99), "ms");

    // Pipeline replays: the workload's own engine, and the other engine on
    // the same input as its reference.
    ReplayOut llhj, hsj;
    const int shards = spec.engine == Engine::kShardedLlhj ? spec.shards : 1;
    const int nodes = spec.engine == Engine::kShardedLlhj ? spec.nodes * spec.shards
                                                         : spec.nodes;
    if (spec.pred.kind == JoinPred::kEqui) {
      llhj = RunPipelineReplay<sjoin::EquiPredicate, false>(spec, in, shards, spec.nodes);
      hsj = RunPipelineReplay<sjoin::EquiPredicate, true>(spec, in, 1, nodes);
    } else {
      llhj = RunPipelineReplay<sjoin::BandPredicate, false>(spec, in, 1, nodes);
      hsj = RunPipelineReplay<sjoin::BandPredicate, true>(spec, in, 1, nodes);
    }
    const ReplayOut& own = spec.engine == Engine::kHsj ? hsj : llhj;
    if (Adapter::HasBacklog()) {
      metrics.Add("runtime.ingest_backlog_mean",
                  tracer.backlog_samples > 0
                      ? tracer.backlog_sum / tracer.backlog_samples
                      : 0.0,
                  "msgs");
      metrics.Add("runtime.ingest_backlog_max",
                  static_cast<double>(tracer.backlog_max), "msgs");
    } else {
      metrics.Add("runtime.ingest_backlog_mean",
                  own.backlog_samples > 0 ? own.backlog_sum / own.backlog_samples
                                          : 0.0,
                  "msgs");
      metrics.Add("runtime.ingest_backlog_max",
                  static_cast<double>(own.backlog_max), "msgs");
    }
    metrics.Add("runtime.step_productive_ratio",
                own.steps > 0 ? static_cast<double>(own.productive_steps) /
                                    own.steps
                              : 0.0,
                "ratio");
    metrics.Add("llhj.node_busy_ms_max", llhj.busy_max_ms(), "ms");
    metrics.Add("llhj.node_busy_max_over_mean", llhj.busy_max_over_mean(), "ratio");
    metrics.Add("hsj.node_busy_ms_max", hsj.busy_max_ms(), "ms");
    metrics.Add("hsj.node_busy_max_over_mean", hsj.busy_max_over_mean(), "ratio");
    metrics.Add("stream.collect_ns_per_result",
                own.results > 0 ? static_cast<double>(own.vacuum_busy_ns) /
                                      own.results
                                : 0.0,
                "ns");
    metrics.Add("stream.results_per_vacuum",
                own.vacuum_calls > 0 ? static_cast<double>(own.results) /
                                           own.vacuum_calls
                                     : 0.0,
                "count");
    if (llhj.anomalies + hsj.anomalies > 0) {
      std::printf("replay anomalies: llhj %llu hsj %llu\n",
                  static_cast<unsigned long long>(llhj.anomalies),
                  static_cast<unsigned long long>(hsj.anomalies));
      verdict.correct = false;
      ++verdict.failed;
    }

    // Store replay over one node's share of the live window.
    const std::size_t node_window = static_cast<std::size_t>(
        LiveTuplesPerSide(spec) / std::max(1, spec.nodes * spec.shards));
    const StoreOut store = ReplayStores(in, node_window, 64, 200'000'000);
    std::printf("store replay: window %zu, simd %s, matches band %llu equi "
                "scan %llu equi hash %llu\n",
                node_window, sjoin::ToString(sjoin::ActiveSimdLevel()),
                static_cast<unsigned long long>(store.band_matches),
                static_cast<unsigned long long>(store.equi_scan_matches),
                static_cast<unsigned long long>(store.equi_hash_matches));
    metrics.Add("llhj.store.band_scan_ns_per_entry", store.band_scan_ns_per_entry, "ns");
    metrics.Add("llhj.store.equi_scan_ns_per_probe", store.equi_scan_ns_per_probe, "ns");
    metrics.Add("llhj.store.equi_hash_ns_per_probe", store.equi_hash_ns_per_probe, "ns");
    metrics.Add("llhj.store.insert_erase_ns_per_tuple",
                store.insert_erase_ns_per_tuple, "ns");

    // Tracing overhead: traced minus untraced pass of this process.
    metrics.Add("trace_overhead.tuples_per_s",
                Throughput(traced) - Throughput(plain), "tuples/s");
    metrics.Add("trace_overhead.latency_p50_ms",
                SlowerStreamMs(FastRoundLatency(traced), 0.50) -
                    SlowerStreamMs(FastRoundLatency(plain), 0.50),
                "ms");
    metrics.Add("trace_overhead.latency_p99_ms",
                SlowerStreamMs(FastRoundLatency(traced), 0.99) -
                    SlowerStreamMs(FastRoundLatency(plain), 0.99),
                "ms");

    std::error_code ec;
    std::filesystem::create_directories(".bench_trace", ec);
    tracer.Write(".bench_trace/" + std::string(spec.name) + "-seed" +
                 std::to_string(args.seed) + ".jsonl");
  }

  metrics.Print(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              verdict.correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(verdict.failed),
              metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--threaded") {
      a.threaded = std::strcmp(val, "0") != 0;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = ParseArgs(argc, argv);
    for (const Spec& spec : kSpecs) {
      if (args.workload != spec.name) continue;
      switch (spec.engine) {
        case Engine::kShardedLlhj:
          return RunWorkload<Sharded>(spec, args);
        case Engine::kLlhj:
        case Engine::kHsj:
          return spec.pred.kind == JoinPred::kEqui
                     ? RunWorkload<Single<sjoin::EquiPredicate>>(spec, args)
                     : RunWorkload<Single<sjoin::BandPredicate>>(spec, args);
      }
    }
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 2;
}
