// infer-mixed: the serving stack, engine-bound and queue-bound.
//
// Set-up trains two models on 32 features, "wide" (100 trees, depth 8) and
// "narrow" (30 trees, depth 2), plus a retrained wide v2, compiles the
// offline engine and deploys wide v1 and narrow into a ModelServer.
//
// (a) Offline: the compiled engine predicts one 20k-row batch, repeated,
//     with a pass of the host probe (bench.h) before each predict and after
//     the last.
// (b) Online, open loop: one generator thread sends single rows to both
//     models on a fixed schedule over a ladder of offered rates; a collector
//     thread resolves the futures. With the two batcher workers (whose
//     engine predicts run on one simulator thread) that is 4 threads, the
//     nproc of the reference host; the main thread only sleeps, except for
//     the one hot-swap deploy() of wide v2 in the middle of the reference
//     rung.
//     Latency is timed from each request's due time, so a stalled generator
//     or queue shows; a rejected, failed or wrong answer misses the limit.
//
// Every batch and every served score must equal Model::predict of the
// version that served it, bit for bit, and every accepted request must be
// answered across the swap.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/booster.h"
#include "data/synthetic.h"
#include "inputs.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "stats.h"
#include "trace.h"

namespace gbmobench {
namespace {

using gbmo::core::Model;
using ModelPtr = std::shared_ptr<const Model>;

constexpr std::size_t kTrainRows = 2000;
constexpr std::size_t kFeatures = 32;
constexpr int kOutputs = 4;
constexpr std::size_t kBatchRows = 20000;
constexpr std::size_t kPoolRows = 4096;
constexpr int kSetups = 3;
constexpr int kMinPasses = 10;
constexpr double kOfflineShare = 0.4;  // of --seconds; the ladder gets the rest

// Batcher of both models: flush at 32 rows or after 0.3 ms.
constexpr std::size_t kMaxBatch = 32;
constexpr double kMaxDelayMs = 0.3;
constexpr std::size_t kQueueLimit = 1 << 16;

// Offered rates (requests/s over both models) and each rung's share of the
// online time. The reference rung carries the end-to-end latency metrics
// and the hot swap.
struct Rung {
  double rps;
  double share;
};
constexpr Rung kLadder[] = {{2000, 0.1}, {8000, 0.15}, {20000, 0.45},
                            {40000, 0.15}, {50000, 0.15}};
constexpr std::size_t kReferenceRung = 2;
constexpr double kSloMs = 5.0;  // limit on a rung's p99 latency
// A rung's backlog is flat when its median outstanding count in the second
// half exceeds the first half's by no more than this.
constexpr double kBacklogSlack = 64.0;

const char* const kModelNames[] = {"wide", "narrow"};

// Every row comes from one population generated with the generator's fixed
// default seed; --seed chooses the samples (see inputs.h).
gbmo::data::Dataset population() {
  gbmo::data::MultiregressionSpec spec;
  spec.n_instances = 40000;
  spec.n_features = kFeatures;
  spec.n_outputs = kOutputs;
  return gbmo::data::make_multiregression(spec);
}

ModelPtr train(const gbmo::data::Dataset& d, int trees, int depth) {
  gbmo::core::GbmoBooster booster(gbmo::core::TrainConfig::defaults()
                                      .trees(trees)
                                      .depth(depth)
                                      .bins(64)
                                      .eta(0.3f)
                                      .host_threads(kSimThreads));
  return std::make_shared<const Model>(booster.fit(d));
}

struct InferInputs {
  Split wide_data;
  ModelPtr wide, wide_v2, narrow;
  gbmo::data::DenseMatrix batch;
  gbmo::data::DenseMatrix pool;
  std::vector<float> batch_ref;                     // wide v1 on the batch
  std::map<const Model*, std::vector<float>> pool_ref;  // per served model
  std::unique_ptr<gbmo::serve::InferenceEngine> engine;
  std::unique_ptr<gbmo::serve::ModelServer> server;
};

gbmo::serve::DeployOptions deploy_options() {
  return gbmo::serve::DeployOptions{}.batcher_config(
      gbmo::serve::BatcherConfig{}.batch(kMaxBatch).delay_ms(kMaxDelayMs).queue_limit(
          kQueueLimit));
}

std::unique_ptr<InferInputs> make_inputs(const Options& opt) {
  auto in = std::make_unique<InferInputs>();
  const gbmo::data::Dataset pop = population();
  const std::uint64_t s = opt.seed * 8;
  in->wide_data = seeded_split(pop, kTrainRows, s);
  in->wide = train(in->wide_data.train, 100, 8);
  in->wide_v2 = train(sample_rows(pop, kTrainRows, s + 1), 100, 8);
  in->narrow = train(sample_rows(pop, kTrainRows, s + 2), 30, 2);
  in->batch = sample_rows(pop, kBatchRows, s + 3).x;
  in->pool = sample_rows(pop, kPoolRows, s + 4).x;
  in->batch_ref = in->wide->predict(in->batch);
  for (const ModelPtr& m : {in->wide, in->wide_v2, in->narrow}) {
    in->pool_ref[m.get()] = m->predict(in->pool);
  }
  in->engine = gbmo::serve::make_engine("compiled", in->wide);
  in->server = std::make_unique<gbmo::serve::ModelServer>();
  in->server->deploy("wide", in->wide, deploy_options());
  in->server->deploy("narrow", in->narrow, deploy_options());
  return in;
}

bool same_scores(const std::vector<float>& got, const float* want, std::size_t n) {
  return got.size() == n && std::memcmp(got.data(), want, n * sizeof(float)) == 0;
}

// --- (a) offline ------------------------------------------------------------

struct Offline {
  std::vector<double> host_s;  // wall-clock
  std::vector<double> cpu_s;   // process CPU time
  std::vector<double> probe_s;  // host probe before each pass and after the last
  std::vector<double> modeled_s;
  std::uint64_t mismatches = 0;
};

Offline run_offline(InferInputs& in, double seconds, SpanLog* log) {
  Offline r;
  r.probe_s.push_back(probe_cpu_seconds());
  const auto start = Clock::now();
  do {
    const double m0 = in.engine->modeled_seconds();
    const int span = log != nullptr ? log->begin("predict_pass", m0) : -1;
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    const auto scores = in.engine->predict(in.batch);
    r.cpu_s.push_back(process_cpu_seconds() - c0);
    r.host_s.push_back(seconds_between(t0, Clock::now()));
    r.probe_s.push_back(probe_cpu_seconds());
    const double m1 = in.engine->modeled_seconds();
    if (span >= 0) log->end(m1);
    r.modeled_s.push_back(m1 - m0);
    if (!same_scores(scores, in.batch_ref.data(), in.batch_ref.size())) ++r.mismatches;
  } while (seconds_between(start, Clock::now()) < seconds ||
           static_cast<int>(r.host_s.size()) < kMinPasses);
  return r;
}

// --- (b) online -------------------------------------------------------------

struct Request {
  Clock::time_point due, sent, returned, answered;
  int rung = 0;
  int model = 0;  // index into kModelNames
  std::uint32_t row = 0;
  bool accepted = false;
  bool answered_ok = false;  // resolved with the expected scores
  bool failed = false;       // the future carried an exception
  bool mismatch = false;
  bool dropped = false;      // accepted but never answered
  std::shared_ptr<gbmo::serve::ModelVersion> version;
  std::future<std::vector<float>> scores;
  double modeled_sent = 0.0, modeled_answered = 0.0;  // traced run only
};

struct BacklogSample {
  int rung;
  double outstanding;
};

struct Online {
  std::vector<Request> reqs;
  std::vector<BacklogSample> backlog;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> rung_bounds;
  Clock::time_point deploy_start, deploy_end;
  int wide_v1_served = 0, wide_v2_served = 0;
};

void run_online(InferInputs& in, double seconds, bool traced, Online& r) {
  auto& server = *in.server;
  const gbmo::obs::Profiler* profilers[] = {&server.registry().profiler("wide"),
                                            &server.registry().profiler("narrow")};
  // The schedule: request k of a rung is due k / rps after the rung starts.
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  auto rung_start = t0;
  std::size_t k = 0;
  for (std::size_t ri = 0; ri < std::size(kLadder); ++ri) {
    const double dur = kLadder[ri].share * seconds;
    const auto n = static_cast<std::size_t>(kLadder[ri].rps * dur);
    for (std::size_t j = 0; j < n; ++j, ++k) {
      Request q;
      q.due = rung_start + std::chrono::nanoseconds(static_cast<long long>(
                               1e9 * static_cast<double>(j) / kLadder[ri].rps));
      q.rung = static_cast<int>(ri);
      q.model = static_cast<int>(k % 2);
      q.row = static_cast<std::uint32_t>((k * 2654435761u) % kPoolRows);
      r.reqs.push_back(std::move(q));
    }
    const auto rung_end =
        rung_start + std::chrono::nanoseconds(static_cast<long long>(1e9 * dur));
    r.rung_bounds.push_back({rung_start, rung_end});
    rung_start = rung_end;
  }
  const std::size_t total = r.reqs.size();
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> generator_stopped{false};
  // An error on any of the three threads is rethrown once all have joined.
  std::exception_ptr errors[3];

  std::thread generator([&] {
    try {
      auto next_sample = t0;
      for (std::size_t i = 0; i < total; ++i) {
        Request& q = r.reqs[i];
        if (Clock::now() < q.due) std::this_thread::sleep_until(q.due);
        const auto row = in.pool.row(q.row);
        if (traced) q.modeled_sent = profilers[q.model]->total_seconds();
        q.sent = Clock::now();
        auto sub = server.submit(kModelNames[q.model],
                                 std::vector<float>(row.begin(), row.end()));
        q.returned = Clock::now();
        q.accepted = sub.accepted();
        q.version = std::move(sub.version);
        q.scores = std::move(sub.scores);
        published.store(i + 1, std::memory_order_release);
        if (q.due >= next_sample) {
          r.backlog.push_back({q.rung, static_cast<double>(i + 1 - done.load())});
          next_sample = q.due + std::chrono::milliseconds(1);
        }
      }
    } catch (...) {
      errors[0] = std::current_exception();
    }
    generator_stopped.store(true);
  });

  // Records the outcome of request q unless it is still waiting for its
  // answer (returns false then).
  const auto resolve = [&](Request& q) {
    if (!q.accepted) return true;  // rejected: nothing to wait for
    if (q.scores.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      return false;
    }
    q.answered = Clock::now();
    if (traced) q.modeled_answered = profilers[q.model]->total_seconds();
    try {
      const auto scores = q.scores.get();
      const auto& ref = in.pool_ref.at(&q.version->model());
      q.mismatch = !same_scores(scores, ref.data() + q.row * kOutputs, kOutputs);
      q.answered_ok = !q.mismatch;
    } catch (const std::exception&) {
      q.failed = true;
    }
    return true;
  };

  // Polls a window of outstanding futures, so an answer is seen when it
  // arrives even if an earlier request (other model) is still queued. It
  // never spins: the generator, the collector and the two batcher workers
  // share nproc cores.
  const auto collect = [&] {
    constexpr std::size_t kWindow = 256;
    std::vector<char> finished(total, 0);
    std::size_t head = 0;
    auto last_progress = Clock::now();
    while (head < total) {
      const std::size_t pub = published.load(std::memory_order_acquire);
      bool progress = false;
      for (std::size_t i = head; i < std::min(pub, head + kWindow); ++i) {
        if (finished[i] || !resolve(r.reqs[i])) continue;
        finished[i] = 1;
        done.fetch_add(1);
        progress = true;
      }
      while (head < pub && finished[head]) ++head;
      if (progress) {
        last_progress = Clock::now();
      } else if (generator_stopped.load() && head == published.load()) {
        break;  // the generator failed before sending everything
      } else if (generator_stopped.load() &&
                 seconds_between(last_progress, Clock::now()) > 10.0) {
        for (std::size_t i = head; i < pub; ++i) {
          if (!finished[i]) r.reqs[i].dropped = true;
        }
        break;
      } else if (head < pub && r.reqs[head].accepted) {
        // Most answers arrive in order: block on the oldest, briefly, so
        // later ones are still seen soon after they arrive.
        r.reqs[head].scores.wait_for(std::chrono::microseconds(20));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  };
  std::thread collector([&] {
    try {
      collect();
    } catch (...) {
      errors[1] = std::current_exception();
    }
  });

  // The hot swap, halfway through the reference rung.
  try {
    const auto& ref_rung = r.rung_bounds[kReferenceRung];
    std::this_thread::sleep_until(ref_rung.first +
                                  (ref_rung.second - ref_rung.first) / 2);
    r.deploy_start = Clock::now();
    server.deploy("wide", in.wide_v2, deploy_options());
    r.deploy_end = Clock::now();
  } catch (...) {
    errors[2] = std::current_exception();
  }
  generator.join();
  collector.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  server.drain();
  for (const Request& q : r.reqs) {
    if (q.model != 0 || !q.answered_ok) continue;
    (q.version->version() == 1 ? r.wide_v1_served : r.wide_v2_served) += 1;
  }
}

double ms(Clock::time_point a, Clock::time_point b) { return seconds_between(a, b) * 1e3; }

struct RungResult {
  Tail p50, p90, p99, top, late_p99;
  bool flat = false;
  std::size_t requests = 0;
};

constexpr double kMissed = std::numeric_limits<double>::max();

RungResult analyse_rung(const Online& r, int rung) {
  std::vector<double> lat, late, backlog;
  for (const Request& q : r.reqs) {
    if (q.rung != rung) continue;
    lat.push_back(q.answered_ok ? ms(q.due, q.answered) : kMissed);
    late.push_back(ms(q.due, q.sent));
  }
  for (const auto& b : r.backlog) {
    if (b.rung == rung) backlog.push_back(b.outstanding);
  }
  RungResult rr;
  rr.requests = lat.size();
  rr.p50 = percentile(lat, 50.0);
  rr.p90 = percentile(lat, 90.0);
  rr.p99 = percentile(lat, 99.0);
  rr.top = highest_supported_percentile(lat);
  rr.late_p99 = percentile(late, 99.0);
  const std::size_t half = backlog.size() / 2;
  if (half > 0) {
    const double first = median({backlog.begin(), backlog.begin() + half});
    const double second = median({backlog.begin() + half, backlog.end()});
    rr.flat = second <= first + kBacklogSlack;
  }
  return rr;
}

void record_request_spans(const Online& r, SpanLog& log) {
  for (std::size_t i = 0; i < r.reqs.size(); ++i) {
    const Request& q = r.reqs[i];
    // One request in ten of the reference rung keeps the file small.
    if (q.rung != static_cast<int>(kReferenceRung) || !q.answered_ok || i % 10 != 0) {
      continue;
    }
    Span root;
    root.name = std::string("request ") + kModelNames[q.model];
    root.request = static_cast<long>(i);
    root.host_start = log.host_at(q.due);
    root.host_end = log.host_at(q.answered);
    root.modeled_start = q.modeled_sent;
    root.modeled_end = q.modeled_answered;
    const int parent = log.add(root);
    Span submit = root;
    submit.name = "submit";
    submit.parent = parent;
    submit.host_start = log.host_at(q.sent);
    submit.host_end = log.host_at(q.returned);
    submit.modeled_end = q.modeled_sent;
    log.add(submit);
    Span resolve = root;
    resolve.name = "resolve";
    resolve.parent = parent;
    resolve.host_start = log.host_at(q.returned);
    log.add(resolve);
  }
  Span deploy;
  deploy.name = "deploy wide v2";
  deploy.host_start = log.host_at(r.deploy_start);
  deploy.host_end = log.host_at(r.deploy_end);
  log.add(deploy);
}

}  // namespace

void run_infer(const Options& opt, Result& out) {
  const auto epoch = Clock::now();
  std::vector<double> setup_s;
  std::unique_ptr<InferInputs> in;
  for (int i = 0; i < kSetups; ++i) {
    in.reset();  // the previous server drains and stops first
    const auto t0 = Clock::now();
    in = make_inputs(opt);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  std::printf("shape infer-mixed: wide %zu trees depth 8, narrow %zu trees depth 2, "
              "%zu features x %d outputs, trained on %zu rows; offline batch %zu rows; "
              "pool %zu rows; batch %zu / %.1f ms\n",
              in->wide->trees.size(), in->narrow->trees.size(), kFeatures, kOutputs,
              kTrainRows, kBatchRows, kPoolRows, kMaxBatch, kMaxDelayMs);
  std::printf("seed %llu, sim threads %d, nproc %d; threads: generator + collector + "
              "2 batcher workers\n", static_cast<unsigned long long>(opt.seed), kSimThreads,
              opt.nproc);

  SpanLog log(epoch);
  const Offline off =
      run_offline(*in, kOfflineShare * opt.seconds, opt.trace ? &log : nullptr);
  out.ops(off.host_s.size(), off.mismatches);
  out.check(off.mismatches == 0, "offline batches == Model::predict");

  Online on;
  run_online(*in, (1.0 - kOfflineShare) * opt.seconds, opt.trace, on);

  std::uint64_t sent = on.reqs.size(), accepted = 0, rejected = 0, failed = 0,
                mismatches = 0, dropped = 0;
  std::vector<double> late_all;
  for (const Request& q : on.reqs) {
    accepted += q.accepted;
    rejected += !q.accepted;
    failed += q.failed;
    mismatches += q.mismatch;
    dropped += q.dropped;
    late_all.push_back(ms(q.due, q.sent));
  }
  const Share fail{rejected + failed + mismatches + dropped, sent};
  out.ops(sent, fail.count);
  out.check(mismatches == 0, "served scores == Model::predict of their version");
  out.check(failed == 0 && dropped == 0, "every accepted request answered");
  out.check(on.wide_v1_served > 0 && on.wide_v2_served > 0,
            "hot swap observed (wide served on v1 and v2)");
  std::printf("requests: sent %llu, accepted %llu, rejected %llu, failed %llu, "
              "mismatched %llu, dropped %llu; failure share %s\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(dropped), fail.str().c_str());

  double slo_rps = 0.0;
  RungResult reference;
  for (std::size_t ri = 0; ri < std::size(kLadder); ++ri) {
    const RungResult rr = analyse_rung(on, static_cast<int>(ri));
    const bool meets = rr.p99.value <= kSloMs && rr.flat;
    if (meets) slo_rps = std::max(slo_rps, kLadder[ri].rps);
    if (ri == kReferenceRung) reference = rr;
    std::printf("rung %6.0f rps: %zu requests, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms "
                "(%zu beyond), p%g %.4f ms (%zu beyond), generator late p99 %.4f ms, "
                "backlog %s%s%s\n",
                kLadder[ri].rps, rr.requests, rr.p50.value, rr.p90.value, rr.p99.value,
                rr.p99.beyond, rr.top.percentile, rr.top.value, rr.top.beyond,
                rr.late_p99.value, rr.flat ? "flat" : "growing",
                meets ? ", meets the limit" : "", ri == kReferenceRung ? " [reference]" : "");
  }
  std::printf("limit: p99 <= %.1f ms with a flat backlog; highest rung meeting it %.0f rps\n",
              kSloMs, slo_rps);

  const Quartiles q = quartiles(off.host_s);
  const Quartiles c = quartiles(off.cpu_s);
  const double pass_host = q.q2;
  const double pass_modeled = median(off.modeled_s);
  std::printf("offline: %zu passes of %zu rows, cpu quartiles %.4f, %.4f, %.4f s; "
              "wall quartiles %.4f, %.4f, %.4f s (median %.0f rows/s); modeled %.6f s\n",
              off.host_s.size(), kBatchRows, c.q1, c.q2, c.q3, q.q1, pass_host, q.q3,
              static_cast<double>(kBatchRows) / pass_host, pass_modeled);
  const double op_per_probe = print_probe(off.cpu_s, off.probe_s);
  std::printf("deploy of wide v2: %.3f ms\n", ms(on.deploy_start, on.deploy_end));

  if (!opt.trace) {
    const double rmse = holdout_rmse(*in->wide, in->wide_data.holdout);
    std::printf("holdout rmse of wide v1 %.6f; setup median %.4f s over %d\n", rmse,
                median(setup_s), kSetups);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("op_cpu_per_probe", op_per_probe, "ratio");
    out.metric("op_modeled_s", pass_modeled, "s");
    out.metric("holdout_rmse", rmse, "1");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Per-layer: the reference engine on the same batch, timed directly.
  auto reference_engine = gbmo::serve::make_engine("reference", in->wide);
  std::vector<double> ref_host;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const auto scores = reference_engine->predict(in->batch);
    ref_host.push_back(seconds_between(t0, Clock::now()));
    out.check(same_scores(scores, in->batch_ref.data(), in->batch_ref.size()),
              "reference engine batch == Model::predict");
  }
  const double krows = static_cast<double>(kBatchRows) / 1000.0;
  out.layer("serve.engine_host_us_per_krow", pass_host * 1e6 / krows);
  out.layer("serve.ref_engine_host_us_per_krow", median(ref_host) * 1e6 / krows);
  out.layer("serve.engine_host_over_modeled", pass_host / pass_modeled);

  gbmo::serve::LatencyStats batcher;
  for (const char* name : kModelNames) batcher.merge_from(in->server->stats(name).latency);
  out.layer("serve.batch_rows_mean", batcher.mean_batch_size());
  out.layer("serve.batcher_p50_ms", batcher.p50_ms());
  out.layer("serve.batcher_p99_ms", batcher.p99_ms());
  out.layer("serve.deploy_ms", ms(on.deploy_start, on.deploy_end));
  out.layer("serve.request_p50_ms", reference.p50.value);
  out.layer("serve.request_p99_ms", reference.p99.value);
  out.layer("serve.slo_rps", slo_rps);
  out.layer("serve.fail_frac", fail.value());
  out.layer("serve.generator_late_p99_ms", percentile(late_all, 99.0).value);
  out.layer("serve.rejected", static_cast<double>(rejected));
  out.layer("serve.failed", static_cast<double>(failed));
  out.layer("serve.fallbacks", static_cast<double>(batcher.engine_fallbacks));
  out.layer("serve.mismatches", static_cast<double>(mismatches));
  std::printf("batcher (all rungs, both models): %llu requests in %llu batches, "
              "p50 %.4f ms, p99 %.4f ms\n",
              static_cast<unsigned long long>(batcher.requests),
              static_cast<unsigned long long>(batcher.batches), batcher.p50_ms(),
              batcher.p99_ms());
  if (!opt.trace_out.empty()) {
    record_request_spans(on, log);
    log.write_json(opt.trace_out);
  }
}

}  // namespace gbmobench
