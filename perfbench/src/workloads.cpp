#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kLenetModelSeed = 7;
constexpr std::uint64_t kResnetModelSeed = 11;
constexpr int kSetupTrials = 11;
constexpr double kSloMs = 10.0;  ///< lenet_wire_open latency limit on p99

// ------------------------------------------------------------ summaries

Tally sum(const Tally& a, const Tally& b) {
  Tally t = a;
  t.sent += b.sent;
  t.ok += b.ok;
  t.shed += b.shed;
  t.expired += b.expired;
  t.errors += b.errors;
  t.mismatches += b.mismatches;
  t.timeouts += b.timeouts;
  return t;
}

/// Latency and rate summary of one open-loop window for one model.
struct Window {
  Tally tally;
  std::vector<double> latency_ms;  ///< Ok replies, from the scheduled send
  std::vector<double> rtt_ms;      ///< Ok replies, from the actual send
  std::vector<double> late_ms;     ///< every send
  double span_s = 0.0;             ///< first scheduled send -> last reply
  double goodput = 0.0;            ///< Ok replies per second of the span
  bool backlog_grows = false;      ///< last-quarter median > 2x first-quarter + 1 ms

  double p50() const { return median(latency_ms); }
  double p90() const { return quantile(latency_ms, 0.90); }
  double p99() const { return quantile(latency_ms, 0.99); }
};

Window summarize(const std::vector<Outcome>& outcomes, const std::vector<Arrival>& schedule,
                 int model) {
  Window w;
  w.tally = tally(outcomes, schedule, model);
  double first = -1.0, last = 0.0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (model >= 0 && schedule[i].model != model) continue;
    const Outcome& o = outcomes[i];
    w.late_ms.push_back(o.late_ms);
    if (first < 0.0) first = schedule[i].at_s;
    if (!o.replied) continue;
    last = std::max(last, schedule[i].at_s + o.latency_ms / 1e3);
    if (o.exact) {
      w.latency_ms.push_back(o.latency_ms);
      w.rtt_ms.push_back(o.rtt_ms);
    }
  }
  if (last > first && first >= 0.0) {
    w.span_s = last - first;
    w.goodput = static_cast<double>(w.tally.ok) / w.span_s;
  }
  const std::size_t q = w.latency_ms.size() / 4;
  if (q >= 10) {
    const std::vector<double> head(w.latency_ms.begin(), w.latency_ms.begin() + q);
    const std::vector<double> tail(w.latency_ms.end() - q, w.latency_ms.end());
    w.backlog_grows = median(tail) > 2.0 * median(head) + 1.0;
  }
  return w;
}

/// Pools window `w` into `into` (chunks of one rate spread over a run).
void absorb(Window& into, const Window& w) {
  into.tally = sum(into.tally, w.tally);
  into.latency_ms.insert(into.latency_ms.end(), w.latency_ms.begin(), w.latency_ms.end());
  into.rtt_ms.insert(into.rtt_ms.end(), w.rtt_ms.begin(), w.rtt_ms.end());
  into.late_ms.insert(into.late_ms.end(), w.late_ms.begin(), w.late_ms.end());
  into.span_s += w.span_s;
  into.goodput = into.span_s > 0 ? static_cast<double>(into.tally.ok) / into.span_s : 0.0;
  into.backlog_grows = into.backlog_grows || w.backlog_grows;
}

std::string tail_note(std::size_t n, double q) {
  const auto beyond = n - std::min(n, static_cast<std::size_t>(std::ceil(q * n)));
  return "n=" + std::to_string(n) + ", " + std::to_string(beyond) + " beyond" +
         (tail_supported(n, q) ? "" : " (too few: not a supported percentile)");
}

void print_window(const std::string& label, const Window& w) {
  print_tally(label, w.tally);
  const std::size_t n = w.latency_ms.size();
  std::printf("  %-28s p50 %.3f ms  p90 %.3f ms  p99 %.3f ms (%s)  gen.late p99 %.3f ms  "
              "goodput %.1f/s%s\n",
              "", w.p50(), w.p90(), w.p99(), tail_note(n, 0.99).c_str(),
              quantile(w.late_ms, 0.99), w.goodput, w.backlog_grows ? "  BACKLOG GROWS" : "");
}

void account(Report& report, const Tally& t) {
  report.attempted += t.sent;
  report.mismatches += t.mismatches;
  report.failed += t.errors + t.mismatches + t.timeouts;
}

double fail_frac(const Tally& t) {
  return t.sent ? static_cast<double>(t.failed_total()) / static_cast<double>(t.sent) : 0.0;
}

/// Common end-to-end tail of every workload: energy from the STATS verb,
/// median DEPLOY round trip, failure share, and peak memory.
void emit_common(Report& report, double setup_s, double nj, double swap_s, double rss_mb,
                 const Tally& all) {
  print_tally("measured window", all);
  report.end_to_end("fail_frac", fail_frac(all), "ratio",
                    "(errors + wrong + shed + expired + timeouts) / attempted; not gated");
  report.end_to_end("ok_frac", 1.0 - fail_frac(all), "ratio", "1 - fail_frac");
  report.end_to_end("swap_s", swap_s, "s", "median DEPLOY round trip; not gated");
  report.end_to_end("nj_per_inf", nj, "nJ", "STATS energy_per_inference_nj");
  report.end_to_end("setup_s", setup_s, "s", "median of " + std::to_string(kSetupTrials));
  report.end_to_end("peak_rss_mb", rss_mb, "MiB", "VmHWM through set-up and serving");
}

// ------------------------------------------------------------ traced run

/// What the per-layer section needs from the serving passes of a traced run.
struct TracedPasses {
  std::vector<double> rtt_ms;      ///< traced wire round trips (primary model)
  std::vector<double> submit_ms;   ///< in-process serve calls (primary model)
  std::vector<double> late_ms;     ///< generator lateness of the traced pass
  double untraced_p50 = 0.0;
  double traced_p50 = 0.0;
  runtime::NetServerStats net_before, net_after;  ///< around the traced pass
  double stats_nj = 0.0;           ///< STATS verb, primary model
  runtime::ModelServerStats server_stats;  ///< in-process, same moment
  std::uint64_t shed = 0, expired = 0;     ///< across every model
};

/// Engine, plan-step and wire metrics shared by every traced run; also the
/// closure report and the energy cross-check.
void emit_layers(Stack& stack, const ModelSpec& primary,
                 const std::vector<ModelSpec>& specs, runtime::wire::Opcode op,
                 std::int64_t request_batch, const TracedPasses& p, int exec_reps,
                 int walk_reps, Report& report, SpanLog& spans) {
  const runtime::EngineStats& es = p.server_stats.engine;
  const double parents = static_cast<double>(es.batches + es.direct_batches);
  const double avg_batch =
      parents > 0 ? static_cast<double>(es.batched_samples + es.direct_samples) / parents : 1.0;
  const std::int64_t exec_batch =
      op == runtime::wire::Opcode::InferBatch
          ? request_batch
          : std::max<std::int64_t>(1, std::llround(avg_batch));

  std::shared_ptr<runtime::Engine> lease = stack.server->lease(primary.name);
  {
    const Tensor batch = stack_samples(primary, 0, static_cast<std::size_t>(exec_batch));
    for (int r = -2; r < exec_reps; ++r) {
      const Clock::time_point t0 = Clock::now();
      const Tensor out = lease->forward_batch(batch);
      const Clock::time_point t1 = Clock::now();
      for (std::int64_t i = 0; i < exec_batch; ++i) {
        if (!bitwise_equal_row(out, i, primary.expected[static_cast<std::size_t>(i) %
                                                         primary.expected.size()])) {
          ++report.mismatches;
          ++report.failed;
        }
      }
      if (r >= 0) spans.record("engine.forward_batch", t0, t1);
    }
  }
  const std::vector<StepCost> steps = walk_plan(*lease, primary, exec_batch, walk_reps, &spans);
  time_wire_codec(specs, op, request_batch, op == runtime::wire::Opcode::InferBatch ? 20 : 200,
                  spans);

  const double rtt = median(p.rtt_ms);
  const double submit = median(p.submit_ms);
  const double exec = median(spans.durations_ms("engine.forward_batch"));
  const double frames = static_cast<double>(p.net_after.frames - p.net_before.frames);
  const double bytes = static_cast<double>((p.net_after.bytes_in - p.net_before.bytes_in) +
                                           (p.net_after.bytes_out - p.net_before.bytes_out));

  report.per_layer("wire.encode_us", median(spans.durations_ms("wire.encode_tensor_frame")) * 1e3,
                   "us");
  report.per_layer("wire.decode_us", median(spans.durations_ms("wire.decode")) * 1e3, "us");
  report.per_layer("wire.bytes_per_req", frames > 0 ? bytes / frames : 0.0, "B",
                   "request + reply bytes per frame received");
  report.per_layer("net.rtt_ms", rtt, "ms", "n=" + std::to_string(p.rtt_ms.size()));
  report.per_layer("net.self_ms", rtt - submit, "ms", "net.rtt_ms - server.submit_ms");
  report.per_layer("net.frames", frames, "count");
  report.per_layer("net.error_replies",
                   static_cast<double>(p.net_after.replies_error - p.net_before.replies_error),
                   "count");
  report.per_layer("server.submit_ms", submit, "ms",
                   "in-process replay, n=" + std::to_string(p.submit_ms.size()));
  report.per_layer("server.deploy_s",
                   median(spans.durations_ms("server.deploy/" + primary.name)) / 1e3, "s");
  report.per_layer("artifact.load_s",
                   median(spans.durations_ms("artifact.load_artifact/" + primary.name)) / 1e3,
                   "s");
  report.per_layer("engine.exec_ms", exec, "ms",
                   "forward_batch of " + std::to_string(exec_batch));
  report.per_layer("engine.queue_ms", submit - exec, "ms", "server.submit_ms - engine.exec_ms");
  report.per_layer("engine.avg_batch", avg_batch, "samples");
  report.per_layer("engine.shed", static_cast<double>(p.shed), "count");
  report.per_layer("engine.expired", static_cast<double>(p.expired), "count");
  report.per_layer("engine.peak_in_flight", static_cast<double>(es.peak_in_flight), "count");
  report.per_layer("engine.shard_executions", static_cast<double>(es.shard_executions), "count");

  double step_us = 0.0;
  ops::OpTotals per_inference;
  for (const StepCost& s : steps) {
    const std::string base = "step." + primary.family + "." + s.name;
    report.per_layer(base + ".us", s.us, "us");
    if (s.cam) {
      report.per_layer(base + ".searches", s.searches, "count", "per inference");
      report.per_layer(base + ".bytes", s.bytes, "B_computed",
                       "per inference, computed from word_count x word_dim x precision");
    }
    step_us += s.us;
    per_inference += s.ledger;
  }
  const double plan_closure = exec > 0 ? step_us / 1e3 / exec : 0.0;
  report.per_layer("plan.closure", plan_closure, "ratio", "sum(step.*.us) / engine.exec_ms");
  // With net.self and engine.queue defined as differences, the stage sum
  // only departs from the round trip when a difference goes negative.
  const double stages =
      std::max(0.0, rtt - submit) + std::max(0.0, submit - exec) + exec;
  const double stage_closure = rtt > 0 ? stages / rtt : 0.0;
  report.per_layer("stage.closure", stage_closure, "ratio",
                   "(net.self + engine.queue + engine.exec) / net.rtt");
  report.per_layer("gen.late_ms", quantile(p.late_ms, 0.99), "ms", "p99 generator lateness");
  report.per_layer("trace.overhead", p.untraced_p50 > 0 ? p.traced_p50 / p.untraced_p50 : 0.0,
                   "ratio", "traced p50 / untraced p50");

  std::printf("closure: plan.closure %.3f%s, stage closure %.3f%s (ROADMAP tolerance 90%%)\n",
              plan_closure, plan_closure < 0.9 ? " UNDER 90%" : "", stage_closure,
              stage_closure < 0.9 ? " UNDER 90%" : "");

  // Energy cross-check: the walked per-step ledgers times the served count,
  // priced with the engine's own table, must reproduce STATS exactly.
  const std::uint64_t served = es.batched_samples + es.direct_samples;
  ops::OpTotals total;
  total.adds = per_inference.adds * served;
  total.muls = per_inference.muls * served;
  total.cam_searches = per_inference.cam_searches * served;
  total.lut_reads = per_inference.lut_reads * served;
  total.adds_q = per_inference.adds_q * served;
  total.muls_q = per_inference.muls_q * served;
  total.xor_popcounts = per_inference.xor_popcounts * served;
  const double recomputed =
      served ? lease->energy_model().energy(total).total_pj() / 1e3 / static_cast<double>(served)
             : 0.0;
  char mine[64], wire_text[64];
  std::snprintf(mine, sizeof(mine), "%.3f", recomputed);
  std::snprintf(wire_text, sizeof(wire_text), "%.3f", p.stats_nj);
  const bool text_ok = std::string(mine) == wire_text;
  const bool exact_ok = recomputed == es.energy_per_inference_nj;
  std::printf("energy cross-check: steps x %llu served = %s nJ/inf, STATS %s nJ/inf, "
              "in-process %.17g: %s\n",
              static_cast<unsigned long long>(served), mine, wire_text,
              es.energy_per_inference_nj, text_ok && exact_ok ? "exact" : "MISMATCH");
  if (!(text_ok && exact_ok)) report.check_ok = false;
}

/// STATS verb + in-process stats of `name`, read together at quiescence.
void read_stats(Stack& stack, const std::string& name, TracedPasses& p) {
  p.stats_nj = stats_field(stack.clients.back()->stats_json(name), "energy_per_inference_nj");
  p.server_stats = stack.server->stats(name);
}

}  // namespace

// ======================================================== lenet_wire_open

void run_lenet_wire_open(const RunArgs& args, Report& report, SpanLog* spans) {
  // Fixed absolute rates (req/s). The reference rate reports p50/p99 and
  // takes kReferenceShare of the measured time. The ladder above it finds
  // the highest rate meeting the SLO; it is swept kSweeps times and a rung
  // passes when most sweeps pass, so one burst of host noise cannot decide.
  // A last rung far above capacity measures the saturation goodput.
  constexpr double kReferenceRate = 250;
  constexpr double kReferenceShare = 0.4;
  const std::vector<double> ladder = {700, 900, 1100, 1300, 1500, 1700};
  constexpr int kSweeps = 3;
  constexpr int kSwaps = 15;
  constexpr double kSaturationRate = 2400;
  constexpr double kSaturationShare = 0.05;
  constexpr double kWarmSeconds = 2.0;
  constexpr double kWarmRate = 1500;  ///< busy, but below capacity: no backlog
  constexpr int kTrafficConns = 2;

  util::set_global_threads(2);
  ModelSpec spec;
  spec.name = "lenet5-d";
  spec.family = "lenet5";
  spec.variant = models::Variant::PecanD;
  spec.config.path = runtime::ExecPath::Cam;
  prepare_model(spec, kLenetModelSeed, args.seed, 64, args.out_dir);
  const std::vector<ModelSpec> specs{spec};

  runtime::NetServerConfig net_config;
  net_config.executors = 2;
  net_config.deploy_config = spec.config;
  std::uint64_t stream = args.seed * 1000003ull;
  auto schedule_at = [&](double rate, std::size_t n) {
    return poisson_schedule(n, rate, 0, spec.samples.size(), kTrafficConns, 0, ++stream);
  };
  Tally all;
  auto warm = [&](Stack& s, double seconds) {
    const auto sched = schedule_at(kWarmRate, static_cast<std::size_t>(seconds * kWarmRate));
    all = sum(all, summarize(run_open_loop(s, sched, specs, nullptr), sched, 0).tally);
  };
  double setup_s = 0.0;
  Stack stack = bring_up_median(specs, net_config, kTrafficConns + 1, kSetupTrials, spans, setup_s,
                                [&](Stack& s) { warm(s, kWarmSeconds); });
  warm(stack, 0.25);

  if (args.trace) {
    // Untraced and traced wire passes on the same schedule, then the same
    // schedule replayed in-process through Server::submit.
    const auto n = static_cast<std::size_t>(kReferenceRate * args.seconds / 2.0);
    const auto sched = schedule_at(kReferenceRate, n);
    TracedPasses p;
    const Window untraced = summarize(run_open_loop(stack, sched, specs, nullptr), sched, 0);
    print_window("untraced pass", untraced);
    p.net_before = stack.net->stats();
    const Window traced = summarize(run_open_loop(stack, sched, specs, spans), sched, 0);
    p.net_after = stack.net->stats();
    print_window("traced pass", traced);
    all = sum(sum(all, untraced.tally), traced.tally);
    p.rtt_ms = traced.rtt_ms;
    p.late_ms = traced.late_ms;
    p.untraced_p50 = untraced.p50();
    p.traced_p50 = traced.p50();
    read_stats(stack, spec.name, p);
    p.shed = p.server_stats.shed_total;
    p.expired = p.server_stats.engine.expired;
    for (const double d : replay_in_process(*stack.server, sched, specs, net_config.executors,
                                            spans, all.mismatches)) {
      if (d >= 0.0) p.submit_ms.push_back(d);
    }
    account(report, all);
    emit_layers(stack, spec, specs, runtime::wire::Opcode::Infer, 1, p, 300, 200, report, *spans);
    return;
  }

  // kSweeps rounds, each a reference chunk, a ladder sweep and a saturation
  // chunk, so slow host phases spread over all three. A sweep's requests
  // per rung fill the ladder's share of the measured seconds; two failing
  // rungs in a row end a sweep, as every higher rate only adds backlog.
  double inverse_sum = 0.0;
  for (const double r : ladder) inverse_sum += 1.0 / r;
  const auto per_rung = static_cast<std::size_t>(
      args.seconds * (1.0 - kReferenceShare - kSaturationShare) / (kSweeps * inverse_sum));
  const auto reference_n =
      static_cast<std::size_t>(args.seconds * kReferenceShare * kReferenceRate / kSweeps);
  const auto saturation_n =
      static_cast<std::size_t>(args.seconds * kSaturationShare * kSaturationRate / kSweeps);
  std::printf("%d rounds of %zu requests at %.0f/s, a ladder sweep of %zu per rung, and %zu at "
              "%.0f/s; p99 limit %.0f ms, latency from the scheduled send\n",
              kSweeps, reference_n, kReferenceRate, per_rung, saturation_n, kSaturationRate,
              kSloMs);
  auto meets_slo = [](const Window& w) {
    return w.tally.failed_total() == 0 && tail_supported(w.latency_ms.size(), 0.99) &&
           w.p99() <= kSloMs && !w.backlog_grows;
  };
  auto run_rung = [&](double rate, std::size_t n, Tally& measured) {
    const auto sched = schedule_at(rate, n);
    const Window w = summarize(run_open_loop(stack, sched, specs, nullptr), sched, 0);
    measured = sum(measured, w.tally);
    char label[64];
    std::snprintf(label, sizeof(label), "rate %.0f/s%s", rate, meets_slo(w) ? " (meets SLO)" : "");
    print_window(label, w);
    return w;
  };
  Tally measured;
  Window reference, saturated;
  std::vector<int> passes(ladder.size(), 0);
  std::vector<std::vector<double>> goodput(ladder.size());
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    std::printf("round %d:\n", sweep + 1);
    absorb(reference, run_rung(kReferenceRate, reference_n, measured));
    int failing = 0;
    for (std::size_t r = 0; r < ladder.size() && failing < 2; ++r) {
      const Window w = run_rung(ladder[r], per_rung, measured);
      if (meets_slo(w)) {
        ++passes[r];
        goodput[r].push_back(w.goodput);
        failing = 0;
      } else {
        ++failing;
      }
    }
    // Saturation: far above capacity, goodput is the most the stack serves.
    absorb(saturated, run_rung(kSaturationRate, saturation_n, measured));
  }
  print_window("reference rate, all rounds", reference);
  print_window("saturation, all rounds", saturated);
  // slo_rps: goodput at the highest rung most sweeps pass (the reference
  // rate when none does).
  double slo_rps = meets_slo(reference) ? reference.goodput : 0.0;
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    std::printf("  rung %.0f/s met the SLO in %d of %d sweeps\n", ladder[r], passes[r], kSweeps);
    if (2 * passes[r] > kSweeps) slo_rps = median(goodput[r]);
  }
  account(report, sum(all, measured));

  const double nj = stats_field(stack.clients.back()->stats_json(spec.name),
                                "energy_per_inference_nj");
  const double rss_mb = peak_rss_mb();
  const double swap_s = median(wire_deploys(*stack.clients.back(), spec, kSwaps, nullptr));
  const std::string at = "at " + std::to_string(static_cast<int>(kReferenceRate)) + "/s";
  report.end_to_end("p50_ms", reference.p50(), "ms", at);
  report.end_to_end("p90_ms", reference.p90(), "ms", at);
  report.end_to_end("p99_ms", reference.p99(), "ms",
                    at + ", " + tail_note(reference.latency_ms.size(), 0.99) + "; not gated");
  report.end_to_end("slo_rps", slo_rps, "1/s",
                    "goodput at the highest rung meeting p99 <= 10 ms without a growing backlog "
                    "in most sweeps; not gated");
  report.end_to_end("throughput", saturated.goodput, "1/s",
                    "goodput at " + std::to_string(static_cast<int>(kSaturationRate)) + "/s offered");
  emit_common(report, setup_s, nj, swap_s, rss_mb, measured);
}

// ====================================================== resnet_bulk_batch

void run_resnet_bulk_batch(const RunArgs& args, Report& report, SpanLog* spans) {
  constexpr std::int64_t kBatch = 8;
  constexpr std::size_t kPool = 32;
  constexpr double kWarmSeconds = 2.0;
  constexpr int kSwaps = 5;

  util::set_global_threads(4);
  ModelSpec spec;
  spec.name = "resnet20-d";
  spec.family = "resnet20";
  spec.variant = models::Variant::PecanD;
  spec.config.path = runtime::ExecPath::Cam;
  prepare_model(spec, kResnetModelSeed, args.seed, kPool, args.out_dir);
  const std::vector<ModelSpec> specs{spec};
  std::vector<Tensor> batches;
  for (std::size_t b = 0; b < kPool / kBatch; ++b) {
    batches.push_back(stack_samples(spec, b * kBatch, kBatch));
  }

  runtime::NetServerConfig net_config;
  net_config.executors = 2;
  net_config.deploy_config = spec.config;

  // Closed loop: one connection, next INFER_BATCH as soon as the reply lands.
  struct Loop {
    Tally tally;
    std::vector<double> rtt_ms, turnaround_ms;
    double seconds = 0.0;
  };
  std::uint64_t next_batch = args.seed;
  auto closed_loop = [&](Stack& stack, double seconds, SpanLog* log) {
    runtime::NetClient& client = *stack.clients.front();
    Loop loop;
    const Clock::time_point start = Clock::now();
    Clock::time_point last_reply{};
    while (Clock::now() - start < std::chrono::duration<double>(seconds)) {
      const std::size_t b = next_batch++ % batches.size();
      const Clock::time_point t0 = Clock::now();
      if (last_reply != Clock::time_point{}) loop.turnaround_ms.push_back(ms_between(last_reply, t0));
      ++loop.tally.sent;
      try {
        const Tensor out = client.infer_batch(spec.name, batches[b]);
        const Clock::time_point t1 = Clock::now();
        last_reply = t1;
        bool exact = true;
        for (std::int64_t i = 0; i < kBatch; ++i) {
          exact = exact && bitwise_equal_row(out, i, spec.expected[b * kBatch + static_cast<std::size_t>(i)]);
        }
        if (!exact) {
          ++loop.tally.mismatches;
          continue;
        }
        ++loop.tally.ok;
        loop.rtt_ms.push_back(ms_between(t0, t1));
        if (log) log->record("net_client.infer_batch", t0, t1);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "INFER_BATCH failed: %s\n", e.what());
        ++loop.tally.errors;
        break;
      }
    }
    loop.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return loop;
  };
  auto print_loop = [&](const std::string& label, const Loop& l) {
    print_tally(label, l.tally);
    std::printf("  %-28s p50 %.3f ms  p90 %.3f ms (%s)  img/s %.3f  gen.late p99 %.3f ms\n", "",
                median(l.rtt_ms), quantile(l.rtt_ms, 0.90), tail_note(l.rtt_ms.size(), 0.90).c_str(),
                static_cast<double>(l.tally.ok * kBatch) / l.seconds,
                quantile(l.turnaround_ms, 0.99));
  };

  Tally all;
  double setup_s = 0.0;
  Stack stack = bring_up_median(specs, net_config, 2, kSetupTrials, spans, setup_s, [&](Stack& s) {
    all = sum(all, closed_loop(s, kWarmSeconds, nullptr).tally);
  });
  all = sum(all, closed_loop(stack, 0.25, nullptr).tally);

  if (args.trace) {
    TracedPasses p;
    const Loop untraced = closed_loop(stack, args.seconds / 2.0, nullptr);
    print_loop("untraced pass", untraced);
    p.net_before = stack.net->stats();
    const Loop traced = closed_loop(stack, args.seconds / 2.0, spans);
    p.net_after = stack.net->stats();
    print_loop("traced pass", traced);
    all = sum(sum(all, untraced.tally), traced.tally);
    p.rtt_ms = traced.rtt_ms;
    p.late_ms = traced.turnaround_ms;
    p.untraced_p50 = median(untraced.rtt_ms);
    p.traced_p50 = median(traced.rtt_ms);
    read_stats(stack, spec.name, p);
    p.shed = p.server_stats.shed_total;
    p.expired = p.server_stats.engine.expired;
    // In-process: the same request through Server::forward_batch.
    for (int i = 0; i < 8; ++i) {
      const std::size_t b = static_cast<std::size_t>(i) % batches.size();
      const Clock::time_point t0 = Clock::now();
      const Tensor out = stack.server->forward_batch(spec.name, batches[b]);
      const Clock::time_point t1 = Clock::now();
      spans->record("server.forward_batch", t0, t1);
      p.submit_ms.push_back(ms_between(t0, t1));
      for (std::int64_t r = 0; r < kBatch; ++r) {
        if (!bitwise_equal_row(out, r, spec.expected[b * kBatch + static_cast<std::size_t>(r)])) {
          ++all.mismatches;
        }
      }
    }
    account(report, all);
    emit_layers(stack, spec, specs, runtime::wire::Opcode::InferBatch, kBatch, p, 6, 4, report,
                *spans);
    return;
  }

  const Loop loop = closed_loop(stack, args.seconds, nullptr);
  print_loop("closed loop", loop);
  account(report, sum(all, loop.tally));
  const double nj = stats_field(stack.clients.back()->stats_json(spec.name),
                                "energy_per_inference_nj");
  const double rss_mb = peak_rss_mb();
  const double swap_s = median(wire_deploys(*stack.clients.back(), spec, kSwaps, nullptr));
  const double img_per_s = static_cast<double>(loop.tally.ok * kBatch) / loop.seconds;
  report.end_to_end("p50_ms", median(loop.rtt_ms), "ms", "INFER_BATCH of 8 round trip");
  report.end_to_end("p90_ms", quantile(loop.rtt_ms, 0.90), "ms", tail_note(loop.rtt_ms.size(), 0.90));
  report.end_to_end("throughput", img_per_s, "1/s", "img_per_s");
  emit_common(report, setup_s, nj, swap_s, rss_mb, loop.tally);
}

// ======================================================== mixed_swap_open

void run_mixed_swap_open(const RunArgs& args, Report& report, SpanLog* spans) {
  constexpr double kHiRate = 150;   ///< LeNet5-D Int8, priority 3, 50 ms deadline
  constexpr double kLoRate = 1200;  ///< LeNet5-A Float: slightly above its capacity here
  constexpr double kSwapEvery_s = 1.0;
  constexpr double kWarmSeconds = 2.0;

  // One lane: the batchers compute inline, so the saturated low class,
  // the reactor and the generator stay within the cores.
  util::set_global_threads(1);
  std::vector<ModelSpec> specs(2);
  ModelSpec& hi = specs[0];
  hi.name = "lenet5-d";
  hi.family = "lenet5";
  hi.variant = models::Variant::PecanD;
  hi.config.path = runtime::ExecPath::Cam;
  hi.config.cam_precision = cam::CamPrecision::Int8;
  hi.priority = 3;
  hi.deadline_ms = 50;
  ModelSpec& lo = specs[1];
  lo.name = "lenet5-a";
  lo.family = "lenet5";
  lo.variant = models::Variant::PecanA;
  lo.config.path = runtime::ExecPath::Float;
  lo.config.backpressure = runtime::Backpressure::Reject;
  lo.config.max_pending = 1;
  lo.config.slo_target_ms = 10.0;
  prepare_model(hi, kLenetModelSeed, args.seed, 64, args.out_dir);
  prepare_model(lo, kLenetModelSeed + 1, args.seed + 1, 64, args.out_dir);

  runtime::NetServerConfig net_config;
  net_config.executors = 3;
  net_config.deploy_config = lo.config;
  std::uint64_t stream = args.seed * 1000003ull;
  auto schedule_for = [&](double seconds) {
    return merge_schedules(
        {poisson_schedule(static_cast<std::size_t>(kHiRate * seconds), kHiRate, 0,
                          hi.samples.size(), 1, 0, ++stream),
         poisson_schedule(static_cast<std::size_t>(kLoRate * seconds), kLoRate, 1,
                          lo.samples.size(), 1, 1, ++stream)});
  };
  // One pass: the open loop on connections 0 and 1 while connection 2
  // hot-swaps LeNet5-A about once a second.
  struct Pass {
    Window hi, lo;
    std::vector<double> swaps_s;
    std::uint64_t swap_failures = 0;
  };
  auto run_pass = [&](Stack& stack, const std::vector<Arrival>& sched, SpanLog* log) {
    Pass pass;
    std::atomic<bool> done{false};
    std::thread swapper([&] {
      const Clock::time_point start = Clock::now();
      for (int k = 1; !done.load(); ++k) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(kSwapEvery_s * (k - 0.5)));
        while (!done.load() && Clock::now() < due) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (done.load()) break;
        try {
          const std::vector<double> rtt = wire_deploys(*stack.clients[2], lo, 1, log);
          pass.swaps_s.push_back(rtt.front());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "DEPLOY failed: %s\n", e.what());
          ++pass.swap_failures;
        }
      }
    });
    std::vector<Outcome> outcomes;
    try {
      outcomes = run_open_loop(stack, sched, specs, log);
    } catch (...) {
      done.store(true);
      swapper.join();
      throw;
    }
    done.store(true);
    swapper.join();
    pass.hi = summarize(outcomes, sched, 0);
    pass.lo = summarize(outcomes, sched, 1);
    return pass;
  };
  auto print_pass = [&](const std::string& label, const Pass& pass) {
    print_window(label + " hi (lenet5-d int8)", pass.hi);
    print_window(label + " lo (lenet5-a float)", pass.lo);
    std::printf("  %-28s %zu DEPLOYs, median %.4f s, %llu failed\n", "", pass.swaps_s.size(),
                median(pass.swaps_s), static_cast<unsigned long long>(pass.swap_failures));
  };
  auto pass_tally = [](const Pass& pass) {
    Tally t = sum(pass.hi.tally, pass.lo.tally);
    t.sent += pass.swaps_s.size() + pass.swap_failures;
    t.ok += pass.swaps_s.size();
    t.errors += pass.swap_failures;
    return t;
  };

  Tally all;
  auto warm = [&](Stack& s, double seconds) {
    const auto sched = schedule_for(seconds);
    all = sum(all, tally(run_open_loop(s, sched, specs, nullptr), sched));
  };
  double setup_s = 0.0;
  Stack stack = bring_up_median(specs, net_config, 3, kSetupTrials, spans, setup_s,
                                [&](Stack& s) { warm(s, kWarmSeconds); });
  warm(stack, 0.25);

  if (args.trace) {
    TracedPasses p;
    const auto sched = schedule_for(args.seconds / 2.0);
    const Pass untraced = run_pass(stack, sched, nullptr);
    print_pass("untraced", untraced);
    p.net_before = stack.net->stats();
    const Pass traced = run_pass(stack, sched, spans);
    p.net_after = stack.net->stats();
    print_pass("traced", traced);
    all = sum(sum(all, pass_tally(untraced)), pass_tally(traced));
    p.rtt_ms = traced.hi.rtt_ms;
    p.late_ms = traced.hi.late_ms;
    p.late_ms.insert(p.late_ms.end(), traced.lo.late_ms.begin(), traced.lo.late_ms.end());
    p.untraced_p50 = untraced.hi.p50();
    p.traced_p50 = traced.hi.p50();
    read_stats(stack, hi.name, p);
    const runtime::ModelServerStats lo_stats = stack.server->stats(lo.name);
    p.shed = p.server_stats.shed_total + lo_stats.shed_total;
    p.expired = p.server_stats.engine.expired + lo_stats.engine.expired;
    const std::vector<double> replay = replay_in_process(*stack.server, sched, specs,
                                                         net_config.executors, spans,
                                                         all.mismatches);
    for (std::size_t i = 0; i < replay.size(); ++i) {
      if (sched[i].model == 0 && replay[i] >= 0.0) p.submit_ms.push_back(replay[i]);
    }
    account(report, all);
    emit_layers(stack, hi, specs, runtime::wire::Opcode::Infer, 1, p, 300, 200, report, *spans);
    return;
  }

  const auto sched = schedule_for(args.seconds);
  const Pass pass = run_pass(stack, sched, nullptr);
  print_pass("measured", pass);
  account(report, sum(all, pass_tally(pass)));
  const double nj = stats_field(stack.clients.back()->stats_json(hi.name),
                                "energy_per_inference_nj");
  const double window_s = sched.back().at_s;
  const double goodput = static_cast<double>(pass.hi.tally.ok + pass.lo.tally.ok) / window_s;
  report.end_to_end("p50_ms", pass.hi.p50(), "ms", "high class");
  report.end_to_end("p90_ms", pass.hi.p90(), "ms", "high class");
  report.end_to_end("p99_hi_ms", pass.hi.p99(), "ms",
                    tail_note(pass.hi.latency_ms.size(), 0.99) + "; not gated");
  report.end_to_end("throughput", goodput, "1/s", "Ok replies per second, both classes");
  emit_common(report, setup_s, nj, median(pass.swaps_s), peak_rss_mb(), pass_tally(pass));
}

}  // namespace perfbench
