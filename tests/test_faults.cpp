// Chaos suite: fault injection, end-to-end deadlines, artifact integrity,
// and the self-healing NetClient.
//
// What is pinned down here:
//   * util::FaultInjector — spec parsing, seeded-deterministic draws, count
//     limits, disarm semantics, and the zero-cost unarmed fast path.
//   * CRC-32 artifact trailer — round trip, legacy (trailer-less) files
//     still load, bit flips and truncated trailers throw the typed
//     ArtifactCorruptError, and a corrupt deploy leaves the model table
//     serving the previous generation bit for bit.
//   * EINTR hardening — send_all/recv_exact complete under a timer-signal
//     storm that interrupts every few milliseconds.
//   * Deadlines — wire tail round trip (priority-0 + no-deadline frames
//     stay byte-identical to v1), engine admission shed and queue-expiry
//     sweep with their expired counter, and DEADLINE_EXCEEDED over a real
//     socket.
//   * Micro-batching without a straggler wait — the backlog that queues
//     behind a stalled batch leaves as one batch, bitwise-equal to the
//     per-sample forward, and its measured queue wait covers the stall.
//   * Executor priority — with the one executor stalled, a priority-3
//     request queued behind a priority-0 one is served first.
//   * Connection death mid-request — a half-frame close and a
//     close-before-reply both release the executor slot and the in-flight
//     ledger (NetServerStats::jobs_in_flight returns to 0, no leak).
//   * Self-healing NetClient — transparent reconnect + retry under injected
//     connection kills and torn reads, bitwise-correct completed replies,
//     fail-fast default policy, and no retry past a lapsed deadline.
//
// Every fault site armed here is disarmed again via ScopedFaults, so tests
// stay independent inside the shared process.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/lenet.hpp"
#include "runtime/model_artifact.hpp"
#include "runtime/net_client.hpp"
#include "runtime/net_server.hpp"
#include "runtime/server.hpp"
#include "runtime/wire.hpp"
#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"
#include "util/fault_injector.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"

#include "serving_helpers.hpp"

namespace pecan {
namespace {

using namespace std::chrono_literals;
namespace wire = runtime::wire;
using util::FaultInjector;

// ------------------------------------------------------------------- helpers

/// Disarms every fault site on scope exit — tests cannot leak chaos into
/// each other even when an ASSERT bails out early.
struct ScopedFaults {
  ScopedFaults() { FaultInjector::instance().disarm_all(); }
  ~ScopedFaults() { FaultInjector::instance().disarm_all(); }
};

Tensor lenet_sample(std::uint64_t seed) {
  Rng rng(seed);
  return rng.randn({1, 28, 28});
}

/// Polls `pred` until it holds or `timeout` lapses.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 3000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, UnarmedFastPathNeverFires) {
  ScopedFaults guard;
  EXPECT_FALSE(FaultInjector::armed());
  EXPECT_FALSE(PECAN_FAULT_POINT("no.such.site"));
  EXPECT_EQ(FaultInjector::instance().fired("no.such.site"), 0u);
}

TEST(FaultInjector, SpecParsesProbabilityCountAndLatency) {
  ScopedFaults guard;
  FaultInjector::instance().arm_spec("a.always;b.limited:p=1,count=2;c.tuned:p=0.5,latency_ms=0");
  EXPECT_TRUE(FaultInjector::armed());

  // Bare site = always fires.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(PECAN_FAULT_POINT("a.always"));
  EXPECT_EQ(FaultInjector::instance().fired("a.always"), 5u);

  // count caps the total fires; afterwards the site reports false forever.
  EXPECT_TRUE(PECAN_FAULT_POINT("b.limited"));
  EXPECT_TRUE(PECAN_FAULT_POINT("b.limited"));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(PECAN_FAULT_POINT("b.limited"));
  EXPECT_EQ(FaultInjector::instance().fired("b.limited"), 2u);

  // p=0.5 fires a nontrivial subset of a long visit sequence.
  int fires = 0;
  for (int i = 0; i < 400; ++i) fires += PECAN_FAULT_POINT("c.tuned") ? 1 : 0;
  EXPECT_GT(fires, 100);
  EXPECT_LT(fires, 300);

  FaultInjector::instance().disarm_all();
  EXPECT_FALSE(FaultInjector::armed());
  EXPECT_FALSE(PECAN_FAULT_POINT("a.always"));
}

TEST(FaultInjector, SeededDrawsReplayTheSameSchedule) {
  ScopedFaults guard;
  const auto run = [] {
    FaultInjector::instance().set_seed(1234);
    FaultInjector::instance().arm("seeded.site", {/*probability=*/0.3});
    std::vector<bool> schedule;
    for (int i = 0; i < 200; ++i) schedule.push_back(PECAN_FAULT_POINT("seeded.site"));
    FaultInjector::instance().disarm_all();
    return schedule;
  };
  EXPECT_EQ(run(), run());  // the chaos-job reproducibility contract
}

TEST(FaultInjector, BadSpecsThrowWithoutArming) {
  ScopedFaults guard;
  EXPECT_THROW(FaultInjector::instance().arm_spec("site:p=nope"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::instance().arm_spec(":p=1"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::instance().arm_spec("site:bogus_key=1"), std::invalid_argument);
  // A number must span its whole value: "0.5x" or "3ms" is not 0.5 or 3.
  EXPECT_THROW(FaultInjector::instance().arm_spec("site:p=0.5x"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::instance().arm_spec("site:count=3ms"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::instance().arm_spec("site:latency_ms=20ms"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::instance().arm("s", {/*probability=*/1.5}), std::invalid_argument);
  EXPECT_FALSE(FaultInjector::armed());
}

// -------------------------------------------------------------- CRC trailer

TEST(CrcTrailer, RoundTripsAndTrailerlessFilesAreCorrupt) {
  const std::string path = "/tmp/pecan_faults_crc_roundtrip.bin";
  Rng rng(5);
  TensorMap tensors;
  tensors["w"] = rng.randn({3, 4});
  tensors["b"] = rng.randn({4});
  MetaMap meta{{"k", "v"}};
  save_tensors(path, tensors, meta);

  // Trailer present and verified: the load round-trips bitwise.
  {
    const TensorFile file = load_tensor_file(path);
    EXPECT_EQ(file.meta.at("k"), "v");
    EXPECT_TRUE(matches(file.tensors.at("w"), tensors["w"]));
    EXPECT_TRUE(matches(file.tensors.at("b"), tensors["b"]));
  }

  // Strip the 8-byte trailer: a file cut exactly at the trailer is as
  // corrupt as one whose checksum disagrees (every writer appends it).
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 8u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
  }
  EXPECT_THROW(load_tensor_file(path), ArtifactCorruptError);
  std::remove(path.c_str());
}

TEST(CrcTrailer, BitFlipAndTruncatedTrailerThrowArtifactCorrupt) {
  const std::string path = "/tmp/pecan_faults_crc_corrupt.bin";
  Rng rng(6);
  TensorMap tensors;
  tensors["w"] = rng.randn({8, 8});
  save_tensors(path, tensors);

  std::vector<char> pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  const auto rewrite = [&](const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Flip one payload bit in the middle of the tensor data: the structure
  // still parses, but the checksum must catch the damage.
  {
    std::vector<char> flipped = pristine;
    flipped[flipped.size() / 2] ^= 0x10;
    rewrite(flipped);
    EXPECT_THROW(load_tensor_file(path), ArtifactCorruptError);
  }
  // Tag present but the checksum cut off: corrupt, not legacy.
  for (const std::size_t cut : {1u, 3u}) {
    std::vector<char> truncated = pristine;
    truncated.resize(truncated.size() - cut);
    rewrite(truncated);
    EXPECT_THROW(load_tensor_file(path), ArtifactCorruptError) << "cut " << cut;
  }
  // Intact bytes load again (the file above was damaged, not the format).
  rewrite(pristine);
  EXPECT_TRUE(matches(load_tensor_file(path).tensors.at("w"), tensors["w"]));
  std::remove(path.c_str());
}

TEST(CrcTrailer, CorruptArtifactDeployLeavesRegistryUntouched) {
  ScopedFaults guard;
  util::set_global_threads(1);
  const std::string path = "/tmp/pecan_faults_corrupt_deploy.bin";
  {
    auto net = lenet(7);
    runtime::save_artifact(
        path, runtime::make_artifact("lenet5", models::Variant::PecanD, 10, *net));
  }
  const Tensor sample = lenet_sample(23);

  runtime::Server server;
  EXPECT_EQ(server.deploy_file("m", path), 1u);
  const Tensor ref = server.submit("m", sample).get();

  // A real on-disk bit flip in the weights: CRC verification rejects the
  // hot-swap and generation 1 keeps serving bit for bit.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-64, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-64, std::ios::end);
    byte ^= 0x01;
    f.write(&byte, 1);
  }
  EXPECT_THROW(server.deploy_file("m", path), ArtifactCorruptError);
  EXPECT_EQ(server.generation("m"), 1u);
  EXPECT_TRUE(matches(server.submit("m", sample).get(), ref));

  // The artifact.corrupt fault site simulates the same failure without a
  // damaged file — identical model-table guarantee.
  FaultInjector::instance().arm_spec("artifact.corrupt:count=1");
  EXPECT_THROW(server.deploy_file("m", path), ArtifactCorruptError);
  EXPECT_EQ(server.generation("m"), 1u);
  EXPECT_TRUE(matches(server.submit("m", sample).get(), ref));
  std::remove(path.c_str());
}

// ---------------------------------------------------------- EINTR hardening

extern "C" void faults_noop_signal(int) {}

TEST(Socket, SendRecvSurviveTimerSignalStorm) {
  // A 2 ms interval timer without SA_RESTART: every slow syscall gets
  // interrupted repeatedly. send_all/recv_exact must resume and deliver the
  // byte stream intact.
  struct sigaction sa{}, old_sa{};
  sa.sa_handler = faults_noop_signal;
  sa.sa_flags = 0;  // deliberately NO SA_RESTART
  sigemptyset(&sa.sa_mask);
  ASSERT_EQ(sigaction(SIGALRM, &sa, &old_sa), 0);
  itimerval storm{{0, 2000}, {0, 2000}}, old_timer{};
  ASSERT_EQ(setitimer(ITIMER_REAL, &storm, &old_timer), 0);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::Fd a(fds[0]), b(fds[1]);

  const std::size_t kBytes = 4 * 1024 * 1024;  // >> socket buffers: both ends block
  std::vector<std::uint8_t> sent(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) sent[i] = static_cast<std::uint8_t>(i * 31 + 7);
  std::atomic<bool> send_ok{false};
  std::thread sender([&] { send_ok.store(util::send_all(a.get(), sent.data(), sent.size())); });
  std::vector<std::uint8_t> got(kBytes, 0);
  const bool recv_ok = util::recv_exact(b.get(), got.data(), got.size());
  sender.join();

  itimerval stop{{0, 0}, {0, 0}};
  setitimer(ITIMER_REAL, &stop, nullptr);
  sigaction(SIGALRM, &old_sa, nullptr);

  EXPECT_TRUE(send_ok.load());
  EXPECT_TRUE(recv_ok);
  EXPECT_EQ(std::memcmp(sent.data(), got.data(), kBytes), 0);
}

// ------------------------------------------------------------ wire deadline

TEST(WireDeadline, TailRoundTripsAndLegacyFramesDecodeAsNoDeadline) {
  Rng rng(5);
  const Tensor t = rng.randn({1, 28, 28});
  const std::size_t body = wire::tensor_payload_bytes(t);

  // priority + deadline: 5-byte tail.
  {
    std::vector<std::uint8_t> bytes;
    wire::encode_tensor_frame(bytes, wire::Opcode::Infer, wire::Status::Ok, 1, "m", t,
                              /*priority=*/2, /*deadline_ms=*/750);
    EXPECT_EQ(bytes.size(), wire::kHeaderBytes + 1 + body + 5);
    wire::Decoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    wire::FrameView frame;
    ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Frame);
    std::uint8_t priority = 0;
    std::uint32_t deadline_ms = 0;
    const Tensor back =
        wire::decode_tensor_request(frame.payload, frame.payload_len, priority, deadline_ms);
    EXPECT_EQ(priority, 2);
    EXPECT_EQ(deadline_ms, 750u);
    EXPECT_TRUE(matches(back, t));
  }
  // Deadline at priority 0 still needs (and gets) the 5-byte tail.
  {
    std::vector<std::uint8_t> bytes;
    wire::encode_tensor_frame(bytes, wire::Opcode::Infer, wire::Status::Ok, 2, "m", t,
                              /*priority=*/0, /*deadline_ms=*/40);
    EXPECT_EQ(bytes.size(), wire::kHeaderBytes + 1 + body + 5);
    wire::Decoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    wire::FrameView frame;
    ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Frame);
    std::uint8_t priority = 9;
    std::uint32_t deadline_ms = 9;
    (void)wire::decode_tensor_request(frame.payload, frame.payload_len, priority, deadline_ms);
    EXPECT_EQ(priority, 0);
    EXPECT_EQ(deadline_ms, 40u);
  }
  // No deadline: priority-0 frames stay byte-identical to v1, priority-only
  // frames keep the 1-byte tail, and both decode as deadline 0.
  {
    std::vector<std::uint8_t> legacy, with_default;
    wire::encode_tensor_frame(legacy, wire::Opcode::Infer, wire::Status::Ok, 3, "m", t);
    wire::encode_tensor_frame(with_default, wire::Opcode::Infer, wire::Status::Ok, 3, "m", t,
                              /*priority=*/0, /*deadline_ms=*/0);
    EXPECT_EQ(legacy, with_default);
    EXPECT_EQ(legacy.size(), wire::kHeaderBytes + 1 + body);

    std::vector<std::uint8_t> priority_only;
    wire::encode_tensor_frame(priority_only, wire::Opcode::Infer, wire::Status::Ok, 4, "m", t,
                              /*priority=*/3, /*deadline_ms=*/0);
    EXPECT_EQ(priority_only.size(), wire::kHeaderBytes + 1 + body + 1);

    for (const std::vector<std::uint8_t>* bytes : {&legacy, &priority_only}) {
      wire::Decoder decoder;
      decoder.feed(bytes->data(), bytes->size());
      wire::FrameView frame;
      ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Frame);
      std::uint8_t priority = 0;
      std::uint32_t deadline_ms = 77;
      (void)wire::decode_tensor_request(frame.payload, frame.payload_len, priority, deadline_ms);
      EXPECT_EQ(deadline_ms, 0u);
    }
  }
  EXPECT_EQ(wire::status_name(wire::Status::DeadlineExceeded),
            std::string_view("DEADLINE_EXCEEDED"));
}

// ---------------------------------------------------------- engine deadline

TEST(EngineDeadline, LapsedOnArrivalIsShedAtAdmissionAndCounted) {
  ScopedFaults guard;
  util::set_global_threads(1);
  runtime::Engine engine(lenet(7));
  const auto past = std::chrono::steady_clock::now() - 1ms;
  EXPECT_THROW((void)engine.submit(lenet_sample(1), past), runtime::DeadlineExceededError);
  const runtime::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.shed, 0u);  // deadline expiry is NOT admission shedding

  // A live deadline with an idle engine serves normally.
  const auto future = std::chrono::steady_clock::now() + 5s;
  EXPECT_EQ(engine.submit(lenet_sample(1), future).get().dim(0), 10);
}

TEST(EngineDeadline, QueueExpiryFailsTheFutureWithoutExecuting) {
  ScopedFaults guard;
  util::set_global_threads(1);
  // Stall the FIRST batch only: request A occupies the batcher for ~300 ms
  // while B's 80 ms budget burns away in the pending queue; the expiry sweep
  // at B's batch formation must fail B's future without running it.
  FaultInjector::instance().arm("engine.stall",
                                {/*probability=*/1.0, /*count=*/1, /*latency_ms=*/300});
  runtime::Engine engine(lenet(7));

  std::future<Tensor> a = engine.submit(lenet_sample(1));
  std::this_thread::sleep_for(50ms);  // let the batcher pop A and hit the stall
  std::future<Tensor> b =
      engine.submit(lenet_sample(2), std::chrono::steady_clock::now() + 80ms);

  EXPECT_EQ(a.get().dim(0), 10);  // the stalled request still completes
  EXPECT_THROW((void)b.get(), runtime::DeadlineExceededError);
  const runtime::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.requests, 2u);  // B was admitted, then expired in the queue
}

// ------------------------------------------------------- batch coalescing

TEST(EngineBatching, BacklogBehindAStalledBatchCoalescesIntoOneBatch) {
  ScopedFaults guard;
  util::set_global_threads(1);
  // The batcher pops a lone sample at once and stalls on it; the kMaxBatch
  // samples submitted meanwhile must leave together as the second batch.
  constexpr auto kStall = 100ms;
  FaultInjector::instance().arm("engine.stall",
                                {/*probability=*/1.0, /*count=*/1, /*latency_ms=*/kStall.count()});
  auto reference = lenet(7);
  reference->set_training(false);
  runtime::Engine engine(lenet(7));

  constexpr std::int64_t kSamples = runtime::kMaxBatch + 1;
  std::vector<Tensor> samples;
  for (std::int64_t i = 0; i < kSamples; ++i) {
    samples.push_back(lenet_sample(100 + static_cast<std::uint64_t>(i)));
  }
  std::vector<std::future<Tensor>> futures;
  const auto first_submitted = std::chrono::steady_clock::now();
  futures.push_back(engine.submit(samples[0]));
  ASSERT_TRUE(eventually([&] { return engine.stats().queue_depth == 0; }));  // popped
  for (std::int64_t i = 1; i < kSamples; ++i) futures.push_back(engine.submit(samples[i]));
  const auto all_submitted = std::chrono::steady_clock::now();

  for (std::int64_t i = 0; i < kSamples; ++i) {
    const Tensor row = futures[static_cast<std::size_t>(i)].get();
    const Tensor& sample = samples[static_cast<std::size_t>(i)];
    const Tensor ref = reference->forward(sample.reshaped({1, 1, 28, 28}));
    ASSERT_EQ(row.numel(), ref.numel());
    EXPECT_EQ(std::memcmp(row.data(), ref.data(),
                          static_cast<std::size_t>(ref.numel()) * sizeof(float)),
              0)
        << "sample " << i;
  }
  const runtime::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batched_samples, static_cast<std::uint64_t>(kSamples));
  // The stalled sample waits out the stall before its execution starts, and
  // each sample behind it waits at least the part of the stall left after
  // the last submit.
  const auto left = std::max<std::chrono::steady_clock::duration>(
      kStall - (all_submitted - first_submitted), std::chrono::steady_clock::duration::zero());
  const double floor_us =
      std::chrono::duration<double, std::micro>(kStall + runtime::kMaxBatch * left).count();
  EXPECT_GE(stats.queue_wait_us, floor_us);
  EXPECT_GT(stats.exec_us, 0.0);
}

// ------------------------------------------------------- deadline over wire

TEST(NetServerDeadline, ExpiredRequestAnswersDeadlineExceededOverTheWire) {
  ScopedFaults guard;
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("m", lenet(7));
  runtime::NetServer net(server, loopback_config(/*executors=*/1));
  net.start();

  // The single executor stalls 250 ms on its first job; the deadlined
  // request behind it expires in the executor queue.
  FaultInjector::instance().arm("net.exec.delay",
                                {/*probability=*/1.0, /*count=*/1, /*latency_ms=*/250});
  runtime::NetClient blocker("127.0.0.1", net.port());
  runtime::NetClient client("127.0.0.1", net.port());
  const std::uint64_t blocker_id = blocker.send_infer("m", lenet_sample(1));
  std::this_thread::sleep_for(30ms);  // blocker is inside the stalled executor
  EXPECT_THROW((void)client.infer("m", lenet_sample(2), /*priority=*/0, /*deadline_ms=*/60),
               runtime::DeadlineExceededError);
  const runtime::NetClient::Reply blocked = blocker.recv();
  EXPECT_EQ(blocked.request_id, blocker_id);
  EXPECT_EQ(blocked.status, wire::Status::Ok);

  // Same connection still serves, and a roomy deadline passes end to end.
  EXPECT_EQ(client.infer("m", lenet_sample(3), 0, /*deadline_ms=*/60'000).dim(0), 10);

  const std::string json = client.stats_json("m");
  EXPECT_NE(json.find("\"expired\":"), std::string::npos) << json;
  net.stop();
  EXPECT_EQ(net.stats().deadline_expired, 1u);
  util::set_global_threads(1);
}

// --------------------------------------------------- executor-queue priority

TEST(NetServerPriority, ExecutorQueueServesHigherPriorityFirst) {
  ScopedFaults guard;
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("m", lenet(7));
  std::vector<Tensor> samples, refs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    samples.push_back(lenet_sample(seed));
    refs.push_back(server.submit("m", samples.back()).get());
  }
  runtime::NetServer net(server, loopback_config(/*executors=*/1));
  net.start();

  // The single executor stalls 300 ms on A, so B (priority 0) and then C
  // (priority 3) wait in the executor queue together; C must be served
  // first although it arrived last.
  FaultInjector::instance().arm("net.exec.delay",
                                {/*probability=*/1.0, /*count=*/1, /*latency_ms=*/300});
  runtime::NetClient client("127.0.0.1", net.port());
  std::map<std::uint64_t, std::size_t> sample_of;
  sample_of[client.send_infer("m", samples[0], /*priority=*/0)] = 0;  // A
  std::this_thread::sleep_for(30ms);  // A is inside the stalled executor
  sample_of[client.send_infer("m", samples[1], /*priority=*/0)] = 1;  // B
  sample_of[client.send_infer("m", samples[2], /*priority=*/3)] = 2;  // C

  std::vector<std::size_t> order;
  for (int i = 0; i < 3; ++i) {
    const runtime::NetClient::Reply reply = client.recv();
    ASSERT_EQ(reply.status, wire::Status::Ok);
    ASSERT_TRUE(sample_of.count(reply.request_id));
    const std::size_t s = sample_of[reply.request_id];
    EXPECT_TRUE(matches(reply.tensor, refs[s])) << "sample " << s;
    order.push_back(s);
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1}));  // C's reply before B's
  net.stop();
  util::set_global_threads(1);
}

// -------------------------------------------------- connection death leaks

TEST(NetServerConnDeath, HalfFrameThenCloseReleasesTheConnection) {
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("m", lenet(7));
  runtime::NetServer net(server, loopback_config());
  net.start();

  {
    // Half a header, then a hard close: no job must be dispatched and the
    // reactor must fully release the connection.
    util::Fd fd(util::tcp_connect("127.0.0.1", net.port()));
    std::vector<std::uint8_t> frame;
    wire::encode_tensor_frame(frame, wire::Opcode::Infer, wire::Status::Ok, 5, "m",
                              lenet_sample(1));
    ASSERT_TRUE(util::send_all(fd.get(), frame.data(), wire::kHeaderBytes / 2));
    ASSERT_TRUE(eventually([&] { return net.stats().connections_accepted >= 1; }));
  }  // fd closes here with the frame forever incomplete

  EXPECT_TRUE(eventually([&] { return net.stats().connections_active == 0; }));
  const runtime::NetServerStats stats = net.stats();
  EXPECT_EQ(stats.jobs_in_flight, 0);
  EXPECT_EQ(stats.frames, 0u);

  // The server is fully healthy for the next client.
  runtime::NetClient client("127.0.0.1", net.port());
  EXPECT_EQ(client.infer("m", lenet_sample(2)).dim(0), 10);
  net.stop();
  util::set_global_threads(1);
}

TEST(NetServerConnDeath, CloseBeforeReplyReleasesExecutorSlotAndLedger) {
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("m", lenet(7));
  runtime::NetServer net(server, loopback_config());
  net.start();

  {
    // A complete INFER, then close before the reply can land. The executor
    // still runs the job; its reply is dropped on the dead connection and
    // the in-flight ledger must return to zero — a leaked slot would pin
    // jobs_in_flight above 0 and wedge graceful drain forever.
    util::Fd fd(util::tcp_connect("127.0.0.1", net.port()));
    std::vector<std::uint8_t> frame;
    wire::encode_tensor_frame(frame, wire::Opcode::Infer, wire::Status::Ok, 6, "m",
                              lenet_sample(1));
    ASSERT_TRUE(util::send_all(fd.get(), frame.data(), frame.size()));
    ASSERT_TRUE(eventually([&] { return net.stats().frames >= 1; }));
  }  // close races the execution — both orders must clean up

  EXPECT_TRUE(eventually([&] {
    const runtime::NetServerStats s = net.stats();
    return s.jobs_in_flight == 0 && s.connections_active == 0;
  }));

  // Executor pool fully available again: a fresh client serves instantly.
  runtime::NetClient client("127.0.0.1", net.port());
  EXPECT_EQ(client.infer("m", lenet_sample(2)).dim(0), 10);
  net.stop();
  EXPECT_EQ(net.stats().jobs_in_flight, 0);
  util::set_global_threads(1);
}

// ------------------------------------------------------- self-healing client

TEST(SelfHealingClient, ReconnectsAndRetriesAfterServerKillsTheConnection) {
  ScopedFaults guard;
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("m", lenet(7));
  const Tensor sample = lenet_sample(11);
  const Tensor ref = server.submit("m", sample).get();

  runtime::NetServer net(server, loopback_config());
  net.start();
  // Exactly one executor-side connection kill, then clean service.
  FaultInjector::instance().arm("net.exec.kill_conn", {/*probability=*/1.0, /*count=*/1});

  runtime::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff = 5ms;
  runtime::NetClient client("127.0.0.1", net.port(), policy);
  const Tensor out = client.infer("m", sample);
  EXPECT_TRUE(matches(out, ref));  // the healed reply is bitwise-correct
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(client.attempts(), 2u);

  net.stop();
  util::set_global_threads(1);
}

TEST(SelfHealingClient, DefaultPolicyStaysFailFast) {
  ScopedFaults guard;
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("m", lenet(7));
  runtime::NetServer net(server, loopback_config());
  net.start();
  FaultInjector::instance().arm("net.exec.kill_conn", {/*probability=*/1.0, /*count=*/1});

  runtime::NetClient client("127.0.0.1", net.port());  // legacy: max_attempts = 1
  EXPECT_THROW((void)client.infer("m", lenet_sample(1)), runtime::ConnectionError);
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_EQ(client.reconnects(), 0u);
  net.stop();
  util::set_global_threads(1);
}

TEST(SelfHealingClient, NeverRetriesPastALapsedDeadline) {
  ScopedFaults guard;
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("m", lenet(7));
  runtime::NetServer net(server, loopback_config());
  net.start();
  // EVERY execution kills the connection: the request can never complete,
  // so the retry loop must stop the moment the client-side budget lapses —
  // long before the generous attempt cap.
  FaultInjector::instance().arm("net.exec.kill_conn", {/*probability=*/1.0});

  runtime::RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.base_backoff = 10ms;
  runtime::NetClient client("127.0.0.1", net.port(), policy);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.infer("m", lenet_sample(1), 0, /*deadline_ms=*/200),
               runtime::DeadlineExceededError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 3s);  // bounded by the deadline, not by 1000 attempts
  EXPECT_LT(client.attempts(), 500u);

  FaultInjector::instance().disarm_all();
  net.stop();
  util::set_global_threads(1);
}

TEST(SelfHealingClient, ChaosLoopbackCompletesEveryRequestBitwiseCorrect) {
  ScopedFaults guard;
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("m", lenet(7));
  const Tensor sample = lenet_sample(31);
  const Tensor ref = server.submit("m", sample).get();

  runtime::NetServer net(server, loopback_config());
  net.start();
  // Full chaos, fixed seed: torn server reads, 1-byte client writes, and
  // random connection kills — the retrying client must still complete every
  // request with bitwise-correct logits.
  FaultInjector::instance().set_seed(99);
  FaultInjector::instance().arm_spec(
      "net.read_short:p=0.2;socket.send_chunk:p=0.05;net.exec.kill_conn:p=0.15");

  runtime::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff = 2ms;
  policy.max_backoff = 20ms;
  runtime::NetClient client("127.0.0.1", net.port(), policy);
  constexpr int kRequests = 30;
  for (int r = 0; r < kRequests; ++r) {
    const Tensor out = client.infer("m", sample);
    ASSERT_TRUE(matches(out, ref)) << "request " << r;
  }
  // With p=0.15 kills over 30 requests, at least one heal is a statistical
  // certainty under the fixed seed.
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GT(client.attempts(), static_cast<std::uint64_t>(kRequests));

  FaultInjector::instance().disarm_all();
  // The in-flight ledger drains to zero even after mid-request kills.
  EXPECT_TRUE(eventually([&] { return net.stats().jobs_in_flight == 0; }));
  net.stop();
  util::set_global_threads(1);
}

}  // namespace
}  // namespace pecan
