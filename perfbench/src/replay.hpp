// Layer replays of the traced run.
//
// Pipeline replay: builds the same LlhjPipeline / HsjPipeline type a session
// builds, with the options the session derives from its JoinConfig, runs
// every node under a ThreadedExecutor inside a timing Steppable wrapper, and
// feeds it from the calling thread with the driver rules of the session
// (count/time expiries in driver order, the LLHJ completion gate, the HSJ
// bounded-lag gate and end-of-input flush). The collector is vacuumed on the
// calling thread with each call timed.
//
// Store replay: fills one window store with a workload's tuples and times
// MatchBatch, Insert and EraseSeq at the dispatched SIMD level.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "core/join_session.hpp"
#include "hsj/hsj_pipeline.hpp"
#include "inputs.hpp"
#include "llhj/llhj_pipeline.hpp"
#include "llhj/store.hpp"
#include "runtime/backoff.hpp"
#include "runtime/executor.hpp"
#include "runtime/placement.hpp"
#include "runtime/topology.hpp"
#include "stream/partitioner.hpp"
#include "stream/query_set.hpp"

namespace perfbench {

/// Pins the calling thread to the CPU `plan` keeps for its feeder (the
/// calling thread feeds and collects in the session API) for as long as it
/// lives, then restores the previous mask. The benchmark passes a kAuto
/// plan whatever the workload's placement: with pinned nodes it keeps the
/// busy caller off their CPUs, and with unpinned nodes it gives the kernel
/// one fixed busy CPU to place them around. Built after the session
/// started: the session detects the topology from the calling thread's
/// mask, so pinning earlier would shrink the session's own plan. No-op
/// when the plan leaves no spare CPU.
class CallerPin {
 public:
  explicit CallerPin(const sjoin::PlacementPlan& plan) {
    const int cpu = plan.CpuForHelper(sjoin::kFeederHelper);
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pinned_ = sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  ~CallerPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CallerPin(const CallerPin&) = delete;
  CallerPin& operator=(const CallerPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// The plan a session with `positions` pipeline nodes and placement
/// `policy` builds on this host.
inline sjoin::PlacementPlan SessionPlan(int positions,
                                        sjoin::PlacementPolicy policy) {
  return sjoin::PlacementPlan::Build(sjoin::Topology::Detect(), policy,
                                     positions, sjoin::kHelperCount);
}

/// Wraps a pipeline node: counts Step calls, productive ones, and the
/// time spent in productive ones. Read only after the executor stopped.
class TimedStep : public sjoin::Steppable {
 public:
  explicit TimedStep(sjoin::Steppable* inner) : inner_(inner) {}
  bool Step() override {
    const int64_t t0 = sjoin::NowNs();
    const bool productive = inner_->Step();
    ++steps_;
    if (productive) {
      ++productive_;
      busy_ns_ += sjoin::NowNs() - t0;
    }
    return productive;
  }
  void OnThreadStart() override { inner_->OnThreadStart(); }

  uint64_t steps() const { return steps_; }
  uint64_t productive() const { return productive_; }
  int64_t busy_ns() const { return busy_ns_; }

 private:
  sjoin::Steppable* inner_;
  uint64_t steps_ = 0;
  uint64_t productive_ = 0;
  int64_t busy_ns_ = 0;
};

struct ReplayOut {
  std::vector<double> node_busy_ms;
  uint64_t steps = 0;
  uint64_t productive_steps = 0;
  uint64_t results = 0;
  uint64_t vacuum_calls = 0;
  int64_t vacuum_busy_ns = 0;  ///< time in calls that delivered >= 1 result
  double backlog_sum = 0;
  uint64_t backlog_max = 0;
  uint64_t backlog_samples = 0;
  uint64_t anomalies = 0;

  double busy_max_ms() const {
    double m = 0;
    for (double b : node_busy_ms) m = std::max(m, b);
    return m;
  }
  double busy_max_over_mean() const {
    double sum = 0;
    for (double b : node_busy_ms) sum += b;
    return sum > 0 ? busy_max_ms() * node_busy_ms.size() / sum : 0.0;
  }
};

/// How the replay feeds: which tuples, at what pace, how many shards.
struct ReplayPlan {
  std::size_t positions = 0;         ///< push-order prefix to replay
  std::size_t prefill_positions = 0;  ///< pushed at once before pacing
  int64_t period_ns = 0;             ///< > 0: paced after the prefill
  WindowDef window;
  int nodes = 2;   ///< nodes per pipeline
  int shards = 1;  ///< > 1: hash-partition on the equi key
  int64_t hsj_window_tuples_hint = 0;
  sjoin::PlacementPolicy placement = sjoin::PlacementPolicy::kAuto;
};

class CountingHandler : public sjoin::OutputHandler<RTuple, STuple> {
 public:
  void OnResult(const Result&) override { ++count; }
  uint64_t count = 0;
};

template <typename Pred, bool kHsj>
class PipelineReplay {
 public:
  using Pipe = std::conditional_t<kHsj, sjoin::HsjPipeline<RTuple, STuple, Pred>,
                                  sjoin::LlhjPipeline<RTuple, STuple, Pred>>;

  PipelineReplay(const Input& in, const ReplayPlan& plan)
      : in_(in), plan_(plan) {}

  ReplayOut Run() {
    BuildPipes();
    CallerPin pin(SessionPlan(plan_.nodes, sjoin::PlacementPolicy::kAuto));
    Feed();
    Finish();
    ReplayOut out = out_;
    for (auto& exec : executors_) exec->Stop();
    for (auto& t : timed_) {
      out.node_busy_ms.push_back(static_cast<double>(t->busy_ns()) / 1e6);
      out.steps += t->steps();
      out.productive_steps += t->productive();
    }
    for (auto& p : pipes_) out.anomalies += p->total_anomalies();
    out.results = handler_.count;
    return out;
  }

 private:
  struct Live {
    uint32_t seq;
    Timestamp ts;
    int shard;
  };

  int64_t WindowTuples() const {
    return plan_.window.time ? plan_.hsj_window_tuples_hint : plan_.window.size;
  }

  void BuildPipes() {
    const Pred pred{};
    const sjoin::JoinConfig session;  // the capacities a session defaults to
    for (int k = 0; k < plan_.shards; ++k) {
      // Each pipeline gets the plan its session builds: the workload's
      // policy over the detected topology, `nodes` positions plus the
      // helper slots.
      sjoin::PlacementPlan placement = SessionPlan(plan_.nodes, plan_.placement);
      typename Pipe::Options options;
      options.nodes = plan_.nodes;
      options.result_capacity = session.result_capacity;
      options.msgs_per_step = session.msgs_per_step;
      options.placement = placement;
      if constexpr (kHsj) {
        const int64_t w = WindowTuples();
        options.channel_capacity = std::min<std::size_t>(
            session.channel_capacity,
            std::max<std::size_t>(8, static_cast<std::size_t>(w / 4)));
        lag_budget_ = std::max<std::size_t>(16, static_cast<std::size_t>(w / 2));
      } else {
        options.channel_capacity = session.channel_capacity;
      }
      pipes_.push_back(std::make_unique<Pipe>(options, pred));
      collectors_.push_back(pipes_.back()->MakeCollector(&handler_));
      collectors_.back()->PrefaultQueues();
      auto exec = std::make_unique<sjoin::ThreadedExecutor>(placement);
      for (sjoin::Steppable* node : pipes_.back()->nodes()) {
        timed_.push_back(std::make_unique<TimedStep>(node));
        exec->Add(timed_.back().get());
      }
      executors_.push_back(std::move(exec));
    }
    left_.resize(pipes_.size());
    right_.resize(pipes_.size());
    for (auto& exec : executors_) exec->Start();
  }

  int ShardOfR(const RTuple& r) const {
    if (plan_.shards == 1) return 0;
    return sjoin::ShardOfKey(
        sjoin::ShardKeyTraits<sjoin::EquiPredicate, RTuple, STuple>::KeyR(r),
        plan_.shards);
  }
  int ShardOfS(const STuple& s) const {
    if (plan_.shards == 1) return 0;
    return sjoin::ShardOfKey(
        sjoin::ShardKeyTraits<sjoin::EquiPredicate, RTuple, STuple>::KeyS(s),
        plan_.shards);
  }

  /// Delivers a stage the way the session does: HSJ waits for its lag
  /// budget, LLHJ delivers the longest prefix whose expiries passed the
  /// completion gate, both hand whole runs to the channel in one burst.
  template <typename T>
  void Deliver(Pipe& pipe, std::vector<sjoin::FlowMsg<T>>* stage,
               sjoin::SpscQueue<sjoin::FlowMsg<T>>* port) {
    std::size_t head = 0;
    sjoin::Backoff backoff;
    while (head < stage->size()) {
      std::size_t run = stage->size() - head;
      if constexpr (kHsj) {
        while (pipe.ApproxChannelBacklog() > lag_budget_) backoff.Pause();
      } else {
        run = 0;
        while (head + run < stage->size()) {
          const sjoin::FlowMsg<T>& m = (*stage)[head + run];
          if (m.kind == sjoin::MsgKind::kExpiry &&
              pipe.hwm().CompletedSeq(m.ref_side) < static_cast<int64_t>(m.seq)) {
            break;
          }
          ++run;
        }
      }
      if (run == 0) {
        backoff.Pause();
        continue;
      }
      const std::size_t pushed = port->TryPushBurst(stage->data() + head, run);
      head += pushed;
      if (pushed > 0) backoff.Reset();
      if (pushed < run) backoff.Pause();
    }
    stage->clear();
  }

  /// `r_first`: the staged batch was an R run, so R's flow goes first.
  void Flush(bool r_first) {
    for (std::size_t k = 0; k < pipes_.size(); ++k) {
      Pipe& pipe = *pipes_[k];
      auto ports = pipe.ports();
      if (r_first) {
        Deliver(pipe, &left_[k], ports.left);
        Deliver(pipe, &right_[k], ports.right);
      } else {
        Deliver(pipe, &right_[k], ports.right);
        Deliver(pipe, &left_[k], ports.left);
      }
    }
  }

  void StageLeft(int shard, const sjoin::FlowMsg<RTuple>& msg) {
    left_[static_cast<std::size_t>(shard)].push_back(msg);
    if (!Burst()) Flush(true);
  }
  void StageRight(int shard, const sjoin::FlowMsg<STuple>& msg) {
    right_[static_cast<std::size_t>(shard)].push_back(msg);
    if (!Burst()) Flush(false);
  }

  /// Span pushes into one JoinSession are staged per span and delivered
  /// in bursts; single-tuple pushes and the sharded driver (which feeds
  /// its member sessions tuple by tuple) deliver message by message.
  bool Burst() const { return in_.span > 1 && plan_.shards == 1; }

  void Expire(sjoin::StreamSide side, const Live& e) {
    if (side == sjoin::StreamSide::kR) {
      sjoin::FlowMsg<STuple> msg;
      msg.kind = sjoin::MsgKind::kExpiry;
      msg.ref_side = side;
      msg.seq = e.seq;
      msg.ts = e.ts;
      StageRight(e.shard, msg);
    } else {
      sjoin::FlowMsg<RTuple> msg;
      msg.kind = sjoin::MsgKind::kExpiry;
      msg.ref_side = side;
      msg.seq = e.seq;
      msg.ts = e.ts;
      StageLeft(e.shard, msg);
    }
  }

  void ExpireByTime(Timestamp now) {
    if (!plan_.window.time) return;
    while (true) {
      const bool r_due =
          !live_r_.empty() && live_r_.front().ts + plan_.window.size < now;
      const bool s_due =
          !live_s_.empty() && live_s_.front().ts + plan_.window.size < now;
      if (!r_due && !s_due) return;
      const bool take_r =
          r_due && (!s_due || live_r_.front().ts <= live_s_.front().ts);
      auto& q = take_r ? live_r_ : live_s_;
      const Live e = q.front();
      q.pop_front();
      Expire(take_r ? sjoin::StreamSide::kR : sjoin::StreamSide::kS, e);
    }
  }

  void ExpireByCount(sjoin::StreamSide side) {
    if (plan_.window.time) return;
    auto& q = side == sjoin::StreamSide::kR ? live_r_ : live_s_;
    if (static_cast<int64_t>(q.size()) <= plan_.window.size) return;
    const Live e = q.front();
    q.pop_front();
    Expire(side, e);
  }

  void PushPosition(std::size_t pos) {
    const std::size_t chunk = pos / in_.span;
    const std::size_t i = (chunk / 2) * in_.span + pos % in_.span;
    if (chunk % 2 == 0) {
      const Timestamp ts = in_.r_ts[i];
      ExpireByTime(ts);
      const int shard = ShardOfR(in_.r[i]);
      sjoin::FlowMsg<RTuple> msg;
      msg.kind = sjoin::MsgKind::kArrival;
      msg.seq = i;
      msg.ts = ts;
      msg.arrival_wall_ns = sjoin::NowNs();
      msg.payload = in_.r[i];
      StageLeft(shard, msg);
      live_r_.push_back(Live{static_cast<uint32_t>(i), ts, shard});
      ExpireByCount(sjoin::StreamSide::kR);
    } else {
      const Timestamp ts = in_.s_ts[i];
      ExpireByTime(ts);
      const int shard = ShardOfS(in_.s[i]);
      sjoin::FlowMsg<STuple> msg;
      msg.kind = sjoin::MsgKind::kArrival;
      msg.seq = i;
      msg.ts = ts;
      msg.arrival_wall_ns = sjoin::NowNs();
      msg.payload = in_.s[i];
      StageRight(shard, msg);
      live_s_.push_back(Live{static_cast<uint32_t>(i), ts, shard});
      ExpireByCount(sjoin::StreamSide::kS);
    }
  }

  void EndChunk(std::size_t pos) {
    Flush((pos / in_.span) % 2 == 0);
    Vacuum();
  }

  void Vacuum() {
    for (auto& c : collectors_) {
      const int64_t t0 = sjoin::NowNs();
      const std::size_t n = c->VacuumOnce();
      ++out_.vacuum_calls;
      if (n > 0) out_.vacuum_busy_ns += sjoin::NowNs() - t0;
    }
  }

  void SampleBacklog() {
    std::size_t n = 0;
    for (auto& p : pipes_) n += p->ApproxChannelBacklog();
    out_.backlog_sum += static_cast<double>(n);
    out_.backlog_max = std::max<uint64_t>(out_.backlog_max, n);
    ++out_.backlog_samples;
  }

  void Feed() {
    for (std::size_t pos = 0; pos < plan_.prefill_positions; ++pos) {
      PushPosition(pos);
      if ((pos + 1) % in_.span == 0) EndChunk(pos);
    }
    const int64_t t0 = sjoin::NowNs();
    for (std::size_t pos = plan_.prefill_positions; pos < plan_.positions;
         ++pos) {
      if (plan_.period_ns > 0) {
        const int64_t due =
            t0 + static_cast<int64_t>(pos - plan_.prefill_positions) *
                     plan_.period_ns;
        while (sjoin::NowNs() < due) Vacuum();
      }
      PushPosition(pos);
      if ((pos + 1) % in_.span == 0) {
        EndChunk(pos);
        SampleBacklog();
      }
    }
  }

  /// End of input: HSJ flushes its segments; then wait until channels are
  /// empty and the node and collector counts stop moving (the session's
  /// quiescence rule).
  void Finish() {
    Flush(true);
    if constexpr (kHsj) {
      for (std::size_t k = 0; k < pipes_.size(); ++k) {
        sjoin::FlowMsg<RTuple> fr;
        fr.kind = sjoin::MsgKind::kFlush;
        left_[k].push_back(fr);
        sjoin::FlowMsg<STuple> fs;
        fs.kind = sjoin::MsgKind::kFlush;
        right_[k].push_back(fs);
      }
      Flush(true);
    }
    uint64_t last_processed = 0, last_results = 0;
    int stable = 0;
    while (stable < 5) {
      Vacuum();
      std::size_t backlog = 0;
      uint64_t processed = 0;
      for (auto& p : pipes_) {
        backlog += p->ApproxBacklog();
        processed += p->TotalProcessed();
      }
      if (backlog == 0 && processed == last_processed &&
          handler_.count == last_results) {
        ++stable;
      } else {
        stable = 0;
        last_processed = processed;
        last_results = handler_.count;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  const Input& in_;
  ReplayPlan plan_;
  CountingHandler handler_;
  std::vector<std::unique_ptr<Pipe>> pipes_;
  std::vector<std::unique_ptr<sjoin::Collector<RTuple, STuple>>> collectors_;
  std::vector<std::unique_ptr<TimedStep>> timed_;
  std::vector<std::unique_ptr<sjoin::ThreadedExecutor>> executors_;
  std::deque<Live> live_r_, live_s_;
  std::vector<std::vector<sjoin::FlowMsg<RTuple>>> left_;
  std::vector<std::vector<sjoin::FlowMsg<STuple>>> right_;
  std::size_t lag_budget_ = 0;
  ReplayOut out_;
};

struct StoreOut {
  double band_scan_ns_per_entry = 0;
  double equi_scan_ns_per_probe = 0;
  double equi_hash_ns_per_probe = 0;
  double insert_erase_ns_per_tuple = 0;
  uint64_t band_matches = 0;
  uint64_t equi_scan_matches = 0;
  uint64_t equi_hash_matches = 0;
};

/// Store replay over `window` R tuples of `in`, probed with S tuples in
/// batches of `batch`. Each timed section repeats its operation until at
/// least `min_ns` passed and reports the per-operation median of 5 slices.
inline StoreOut ReplayStores(const Input& in, std::size_t window,
                             std::size_t batch, int64_t min_ns) {
  using sjoin::Stamped;
  window = std::min(window, in.per_stream);
  std::vector<Stamped<RTuple>> rs(in.per_stream);
  std::vector<Stamped<STuple>> ss(in.per_stream);
  for (std::size_t i = 0; i < in.per_stream; ++i) {
    rs[i] = Stamped<RTuple>{in.r[i], i, in.r_ts[i], 0, 0};
    ss[i] = Stamped<STuple>{in.s[i], i, in.s_ts[i], 0, 0};
  }
  sjoin::VectorStore<RTuple> vec;
  sjoin::HashStore<RTuple, sjoin::RKey, sjoin::SKey> hash;
  for (std::size_t i = 0; i < window; ++i) {
    vec.Insert(rs[i], false);
    hash.Insert(rs[i], false);
  }
  const sjoin::QuerySet<sjoin::BandPredicate> band_q{sjoin::BandPredicate{}};
  const sjoin::QuerySet<sjoin::EquiPredicate> equi_q{sjoin::EquiPredicate{}};

  // Times `op(first_probe)` over successive probe batches; returns ns per
  // batch as the median of 5 slices of at least min_ns / 5 each.
  auto time_batches = [&](auto&& op) {
    std::vector<double> slices;
    std::size_t next = 0;
    for (int s = 0; s < 5; ++s) {
      uint64_t batches = 0;
      const int64_t t0 = sjoin::NowNs();
      int64_t t1 = t0;
      while (t1 - t0 < min_ns / 5) {
        if (next + batch > ss.size()) next = 0;
        op(next);
        next += batch;
        ++batches;
        t1 = sjoin::NowNs();
      }
      slices.push_back(static_cast<double>(t1 - t0) / batches);
    }
    std::sort(slices.begin(), slices.end());
    return slices[2];
  };

  StoreOut out;
  const double band_batch_ns = time_batches([&](std::size_t first) {
    vec.MatchBatch<false>(band_q, &ss[first], batch,
                          [&](std::size_t, sjoin::QueryId, const auto&) {
                            ++out.band_matches;
                          });
  });
  out.band_scan_ns_per_entry =
      band_batch_ns / static_cast<double>(batch * vec.size());
  out.equi_scan_ns_per_probe = time_batches([&](std::size_t first) {
    vec.MatchBatch<false>(equi_q, &ss[first], batch,
                          [&](std::size_t, sjoin::QueryId, const auto&) {
                            ++out.equi_scan_matches;
                          });
  }) / static_cast<double>(batch);
  out.equi_hash_ns_per_probe = time_batches([&](std::size_t first) {
    hash.MatchBatch<false>(equi_q, &ss[first], batch,
                           [&](std::size_t, sjoin::QueryId, const auto&) {
                             ++out.equi_hash_matches;
                           });
  }) / static_cast<double>(batch);

  // Sliding the full window: insert the next tuple, erase the oldest.
  std::size_t oldest = 0, newest = window;
  sjoin::Seq next_seq = window;
  out.insert_erase_ns_per_tuple = time_batches([&](std::size_t) {
    for (std::size_t j = 0; j < batch; ++j) {
      Stamped<RTuple> t = rs[newest];
      t.seq = next_seq++;
      vec.Insert(t, false);
      vec.EraseSeq(oldest++);
      newest = newest + 1 == rs.size() ? 0 : newest + 1;
    }
  }) / static_cast<double>(batch);
  return out;
}

}  // namespace perfbench
