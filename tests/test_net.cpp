// Tests for the TCP wire-protocol front-end: wire framing (torn reads at
// every byte boundary, byte-at-a-time feeds, bad magic/version, oversized
// lengths, a deterministic malformed-frame fuzz loop), Server::deploy_file
// failure atomicity, and the NetServer loopback acceptance guarantees —
// replies received over a real socket are bitwise-identical to direct
// Server::forward_batch results for float/CAM/ResNet models under >= 4
// concurrent connections and across a mid-traffic hot-swap with zero lost
// requests; error statuses (UNKNOWN_MODEL, BAD_REQUEST, BAD_FRAME,
// OVERLOADED) map to the right wire codes; graceful drain flushes every
// in-flight reply.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "runtime/model_artifact.hpp"
#include "runtime/net_client.hpp"
#include "runtime/net_server.hpp"
#include "runtime/server.hpp"
#include "runtime/wire.hpp"
#include "tensor/rng.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"

namespace pecan {
namespace {

using namespace std::chrono_literals;
namespace wire = runtime::wire;

// ------------------------------------------------------------------- helpers

Tensor lenet_batch(Rng& rng, std::int64_t n) { return rng.randn({n, 1, 28, 28}); }

/// Splits a [N, ...] tensor into its N rows.
std::vector<Tensor> split_rows(const Tensor& batched) {
  const std::int64_t n = batched.dim(0);
  const std::int64_t row_numel = batched.numel() / n;
  Shape row_shape(batched.shape().begin() + 1, batched.shape().end());
  std::vector<Tensor> rows;
  for (std::int64_t s = 0; s < n; ++s) {
    Tensor row(row_shape);
    std::copy(batched.data() + s * row_numel, batched.data() + (s + 1) * row_numel, row.data());
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Extracts sample `s` of a [N,C,H,W] batch as a [C,H,W] tensor.
Tensor nth_sample(const Tensor& batch, std::int64_t s) {
  Tensor sample({batch.dim(1), batch.dim(2), batch.dim(3)});
  const std::int64_t numel = sample.numel();
  std::copy(batch.data() + s * numel, batch.data() + (s + 1) * numel, sample.data());
  return sample;
}

/// True when `actual` is bitwise-equal to `expected` in full.
bool matches(const Tensor& actual, const Tensor& expected) {
  if (!actual.same_shape(expected)) return false;
  return std::memcmp(actual.data(), expected.data(),
                     static_cast<std::size_t>(actual.numel()) * sizeof(float)) == 0;
}

/// Fresh LeNet5 weights from a seed (make_lenet5 wants an lvalue Rng).
std::unique_ptr<nn::Sequential> lenet(std::uint64_t seed,
                                      models::Variant variant = models::Variant::PecanD) {
  Rng rng(seed);
  return models::make_lenet5(variant, rng);
}

std::unique_ptr<nn::Sequential> resnet(std::uint64_t seed) {
  Rng rng(seed);
  return models::make_resnet20(models::Variant::Baseline, 10, rng);
}

/// Encodes one frame into a fresh byte vector.
std::vector<std::uint8_t> one_frame(wire::Opcode op, wire::Status status, std::uint64_t id,
                                    std::string_view model, std::string_view payload = {}) {
  std::vector<std::uint8_t> out;
  wire::encode_frame(out, op, status, id, model, payload);
  return out;
}

// ------------------------------------------------------ wire: encode/decode

TEST(Wire, FrameRoundTrip) {
  std::vector<std::uint8_t> bytes = one_frame(wire::Opcode::Stats, wire::Status::Ok, 42,
                                              "lenet5-d", "payload-bytes");
  wire::Decoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  wire::FrameView frame;
  ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Frame);
  EXPECT_EQ(frame.version, wire::kVersion);
  EXPECT_EQ(frame.opcode, wire::Opcode::Stats);
  EXPECT_EQ(frame.status, wire::Status::Ok);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.model, "lenet5-d");
  EXPECT_EQ(frame.payload_text(), "payload-bytes");
  EXPECT_EQ(decoder.next(frame), wire::Decoder::Result::NeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Wire, TensorRoundTripBitwise) {
  Rng rng(5);
  const Tensor t = rng.randn({2, 3, 4, 5});
  std::vector<std::uint8_t> bytes;
  wire::encode_tensor_frame(bytes, wire::Opcode::InferBatch, wire::Status::Ok, 7, "m", t);
  EXPECT_EQ(bytes.size(), wire::kHeaderBytes + 1 + wire::tensor_payload_bytes(t));

  wire::Decoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  wire::FrameView frame;
  ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Frame);
  const Tensor back = wire::decode_tensor(frame.payload, frame.payload_len);
  EXPECT_TRUE(matches(back, t));
}

TEST(Wire, PriorityZeroFramesStayByteIdenticalToLegacy) {
  Rng rng(5);
  const Tensor t = rng.randn({1, 28, 28});
  // Explicit priority 0 and the pre-priority default arm must produce the
  // SAME bytes: old servers keep decoding new default-class clients and old
  // clients parse as class 0 on new servers.
  std::vector<std::uint8_t> legacy, explicit_zero;
  wire::encode_tensor_frame(legacy, wire::Opcode::Infer, wire::Status::Ok, 3, "m", t);
  wire::encode_tensor_frame(explicit_zero, wire::Opcode::Infer, wire::Status::Ok, 3, "m", t,
                            /*priority=*/0);
  EXPECT_EQ(legacy, explicit_zero);

  wire::Decoder decoder;
  decoder.feed(legacy.data(), legacy.size());
  wire::FrameView frame;
  ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Frame);
  // A frame with no priority byte decodes as the default class...
  std::uint8_t priority = 0xFF;
  std::uint32_t deadline_ms = 0xFFFFFFFF;
  const Tensor back =
      wire::decode_tensor_request(frame.payload, frame.payload_len, priority, deadline_ms);
  EXPECT_EQ(priority, 0);
  EXPECT_EQ(deadline_ms, 0u);
  EXPECT_TRUE(matches(back, t));
  // ...and its payload still satisfies the plain reply decoder.
  EXPECT_TRUE(matches(wire::decode_tensor(frame.payload, frame.payload_len), t));
}

TEST(Wire, PriorityByteRoundTrips) {
  Rng rng(6);
  const Tensor t = rng.randn({2, 1, 28, 28});
  std::vector<std::uint8_t> bytes;
  wire::encode_tensor_frame(bytes, wire::Opcode::InferBatch, wire::Status::Ok, 9, "m", t,
                            /*priority=*/3);
  EXPECT_EQ(bytes.size(), wire::kHeaderBytes + 1 + wire::tensor_payload_bytes(t) + 1);

  wire::Decoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  wire::FrameView frame;
  ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Frame);
  std::uint8_t priority = 0;
  std::uint32_t deadline_ms = 0xFFFFFFFF;
  const Tensor back =
      wire::decode_tensor_request(frame.payload, frame.payload_len, priority, deadline_ms);
  EXPECT_EQ(priority, 3);
  EXPECT_EQ(deadline_ms, 0u);  // the 1-byte tail carries no deadline
  EXPECT_TRUE(matches(back, t));
}

TEST(Wire, ByteAtATimeFeedReassemblesEveryFrame) {
  // Three frames of different shapes, fed one byte at a time — the harshest
  // torn-read schedule TCP can produce.
  Rng rng(9);
  const Tensor t = rng.randn({1, 28, 28});
  std::vector<std::uint8_t> stream = one_frame(wire::Opcode::Ping, wire::Status::Ok, 1, "");
  wire::encode_tensor_frame(stream, wire::Opcode::Infer, wire::Status::Ok, 2, "lenet", t);
  {
    std::vector<std::uint8_t> third =
        one_frame(wire::Opcode::ListModels, wire::Status::Ok, 3, "", "a\nb");
    stream.insert(stream.end(), third.begin(), third.end());
  }

  wire::Decoder decoder;
  std::vector<wire::FrameView> got;
  std::vector<Tensor> tensors;
  wire::FrameView frame;
  for (std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);
    for (;;) {
      const wire::Decoder::Result r = decoder.next(frame);
      ASSERT_NE(r, wire::Decoder::Result::Error) << decoder.error();
      if (r != wire::Decoder::Result::Frame) break;
      got.push_back(frame);  // views die on next feed(): copy what we check
      if (frame.opcode == wire::Opcode::Infer) {
        tensors.push_back(wire::decode_tensor(frame.payload, frame.payload_len));
      }
    }
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].opcode, wire::Opcode::Ping);
  EXPECT_EQ(got[1].opcode, wire::Opcode::Infer);
  EXPECT_EQ(got[2].opcode, wire::Opcode::ListModels);
  EXPECT_EQ(got[0].request_id, 1u);
  EXPECT_EQ(got[1].request_id, 2u);
  EXPECT_EQ(got[2].request_id, 3u);
  ASSERT_EQ(tensors.size(), 1u);
  EXPECT_TRUE(matches(tensors[0], t));
}

TEST(Wire, SplitAtEveryByteBoundary) {
  // One frame, split into [0,k) + [k,end) for EVERY k: the decoder must
  // report NeedMore until the last byte lands, then yield the exact frame.
  const std::vector<std::uint8_t> bytes =
      one_frame(wire::Opcode::Stats, wire::Status::Ok, 99, "resnet20", "xyz");
  for (std::size_t k = 0; k <= bytes.size(); ++k) {
    wire::Decoder decoder;
    wire::FrameView frame;
    decoder.feed(bytes.data(), k);
    if (k < bytes.size()) {
      ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::NeedMore) << "split at " << k;
      decoder.feed(bytes.data() + k, bytes.size() - k);
    }
    ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Frame) << "split at " << k;
    EXPECT_EQ(frame.request_id, 99u);
    EXPECT_EQ(frame.model, "resnet20");
    EXPECT_EQ(frame.payload_text(), "xyz");
    EXPECT_EQ(decoder.next(frame), wire::Decoder::Result::NeedMore);
  }
}

TEST(Wire, BadMagicPoisonsWithZeroRequestId) {
  std::vector<std::uint8_t> bytes = one_frame(wire::Opcode::Ping, wire::Status::Ok, 55, "");
  bytes[0] ^= 0xFF;  // corrupt the magic
  wire::Decoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  wire::FrameView frame;
  ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Error);
  EXPECT_NE(decoder.error().find("magic"), std::string::npos) << decoder.error();
  // The diagnostic shows the received magic in hex: "PCAN" with byte 0 flipped.
  EXPECT_NE(decoder.error().find("0x4e4143af"), std::string::npos) << decoder.error();
  // A garbage magic means the header cannot be trusted at all — no id.
  EXPECT_EQ(decoder.error_request_id(), 0u);
  // Poisoned for good: more bytes never resurrect the stream.
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_EQ(decoder.next(frame), wire::Decoder::Result::Error);
}

TEST(Wire, BadVersionReportsTheRequestId) {
  std::vector<std::uint8_t> bytes = one_frame(wire::Opcode::Ping, wire::Status::Ok, 77, "");
  bytes[4] = 0x09;  // version lives at offset 4; 9 is unsupported
  wire::Decoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  wire::FrameView frame;
  ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Error);
  EXPECT_NE(decoder.error().find("version"), std::string::npos) << decoder.error();
  // Magic checked out, so the id field is trustworthy — the error reply can
  // echo it and the client can fail the right request.
  EXPECT_EQ(decoder.error_request_id(), 77u);
}

TEST(Wire, OversizedLengthRejectedNotAllocated) {
  std::vector<std::uint8_t> bytes = one_frame(wire::Opcode::Ping, wire::Status::Ok, 13, "");
  const std::uint32_t huge = 0x7FFFFFFFu;  // payload_len at offset 20
  std::memcpy(bytes.data() + 20, &huge, sizeof(huge));
  wire::Decoder decoder(1 << 20);  // 1 MB ceiling
  decoder.feed(bytes.data(), wire::kHeaderBytes);
  wire::FrameView frame;
  ASSERT_EQ(decoder.next(frame), wire::Decoder::Result::Error);
  EXPECT_NE(decoder.error().find("exceeds"), std::string::npos) << decoder.error();
  EXPECT_EQ(decoder.error_request_id(), 13u);
}

TEST(Wire, TensorPayloadValidation) {
  Rng rng(3);
  const Tensor t = rng.randn({2, 3});
  std::vector<std::uint8_t> frame_bytes;
  wire::encode_tensor_frame(frame_bytes, wire::Opcode::Infer, wire::Status::Ok, 1, "", t);
  const std::uint8_t* payload = frame_bytes.data() + wire::kHeaderBytes;
  const std::size_t len = frame_bytes.size() - wire::kHeaderBytes;

  // The intact payload decodes.
  EXPECT_TRUE(matches(wire::decode_tensor(payload, len), t));
  // Truncated: shorter than the ndim field, mid-dims, and mid-data.
  EXPECT_THROW(wire::decode_tensor(payload, 3), std::invalid_argument);
  EXPECT_THROW(wire::decode_tensor(payload, 4 + 7), std::invalid_argument);
  EXPECT_THROW(wire::decode_tensor(payload, len - 1), std::invalid_argument);
  // Trailing junk is as invalid as missing bytes.
  {
    std::vector<std::uint8_t> padded(payload, payload + len);
    padded.push_back(0);
    EXPECT_THROW(wire::decode_tensor(padded.data(), padded.size()), std::invalid_argument);
  }
  // ndim out of range: 0 and > kMaxTensorDims.
  {
    std::vector<std::uint8_t> bad(payload, payload + len);
    std::uint32_t ndim = 0;
    std::memcpy(bad.data(), &ndim, sizeof(ndim));
    EXPECT_THROW(wire::decode_tensor(bad.data(), bad.size()), std::invalid_argument);
    ndim = static_cast<std::uint32_t>(wire::kMaxTensorDims + 1);
    std::memcpy(bad.data(), &ndim, sizeof(ndim));
    EXPECT_THROW(wire::decode_tensor(bad.data(), bad.size()), std::invalid_argument);
  }
  // Negative dimension.
  {
    std::vector<std::uint8_t> bad(payload, payload + len);
    const std::int64_t neg = -2;
    std::memcpy(bad.data() + 4, &neg, sizeof(neg));
    EXPECT_THROW(wire::decode_tensor(bad.data(), bad.size()), std::invalid_argument);
  }
}

TEST(Wire, MalformedFrameFuzzLoop) {
  // Deterministic fuzz: corrupt every byte of a valid frame (three xor
  // patterns each), feed the mutant through a fresh decoder in LCG-chosen
  // chunk sizes, and require a clean verdict every time — Frame(s), Error,
  // or NeedMore. No crash, no hang, no torn state. When the decoder survives
  // the mutant un-poisoned, a pristine trailing frame must still decode.
  Rng rng(17);
  const Tensor t = rng.randn({1, 4, 4});
  std::vector<std::uint8_t> base;
  wire::encode_tensor_frame(base, wire::Opcode::Infer, wire::Status::Ok, 1000, "fuzz", t);
  const std::vector<std::uint8_t> trailer = one_frame(wire::Opcode::Ping, wire::Status::Ok, 2000, "");

  std::uint64_t lcg = 0x243F6A8885A308D3ull;  // fixed seed: reproducible schedule
  const auto next_chunk = [&lcg](std::size_t remaining) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return std::min<std::size_t>(remaining, 1 + (lcg >> 33) % 97);
  };

  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (const std::uint8_t pattern : {0xFFu, 0x01u, 0x80u}) {
      std::vector<std::uint8_t> stream = base;
      stream[pos] = static_cast<std::uint8_t>(stream[pos] ^ pattern);
      stream.insert(stream.end(), trailer.begin(), trailer.end());

      wire::Decoder decoder;
      wire::FrameView frame;
      bool poisoned = false;
      std::vector<std::uint64_t> ids;
      std::size_t fed = 0;
      while (fed < stream.size() && !poisoned) {
        const std::size_t n = next_chunk(stream.size() - fed);
        decoder.feed(stream.data() + fed, n);
        fed += n;
        for (;;) {
          const wire::Decoder::Result r = decoder.next(frame);
          if (r == wire::Decoder::Result::NeedMore) break;
          if (r == wire::Decoder::Result::Error) {
            poisoned = true;
            EXPECT_FALSE(decoder.error().empty());
            break;
          }
          ids.push_back(frame.request_id);
          if (frame.opcode == wire::Opcode::Infer && frame.payload_len > 0) {
            // Payload corruption must surface as a typed decode error, never
            // memory unsafety.
            try {
              (void)wire::decode_tensor(frame.payload, frame.payload_len);
            } catch (const std::invalid_argument&) {
            }
          }
        }
      }
      if (!poisoned) {
        if (decoder.buffered() == 0) {
          // Un-poisoned mutants (payload/name/id bit flips) must preserve
          // the framing: both frames come out, the trailer untouched.
          ASSERT_EQ(ids.size(), 2u) << "pos " << pos << " pattern " << int(pattern);
          EXPECT_EQ(ids[1], 2000u);
        } else {
          // A flip that inflated a length field makes the stream look
          // truncated — waiting for more bytes is the correct verdict.
          EXPECT_LT(ids.size(), 2u) << "pos " << pos << " pattern " << int(pattern);
        }
      }
    }
  }
}

// -------------------------------------------------------- Server::deploy_file

TEST(DeployFile, DeploysArtifactAndFailureLeavesRegistryUntouched) {
  util::set_global_threads(1);
  const std::string good_path = "/tmp/pecan_net_deploy_good.bin";
  const std::string junk_path = "/tmp/pecan_net_deploy_junk.bin";
  Rng data(23);
  const Tensor batch = lenet_batch(data, 2);

  std::vector<Tensor> ref = split_rows(runtime::Engine(lenet(7)).forward_batch(batch));
  {
    auto net = lenet(7);
    runtime::save_artifact(good_path, runtime::make_artifact("lenet5", models::Variant::PecanD,
                                                             10, *net));
  }

  runtime::Server server;
  EXPECT_EQ(server.deploy_file("m", good_path), 1u);
  {
    const std::vector<Tensor> rows = split_rows(server.forward_batch("m", batch));
    for (std::size_t s = 0; s < rows.size(); ++s) {
      ASSERT_TRUE(matches(rows[s], ref[s])) << "deployed artifact sample " << s;
    }
  }

  // Missing file: throws, nothing installed under the new name, and the
  // existing model keeps serving the same generation.
  EXPECT_THROW(server.deploy_file("m2", "/tmp/pecan_net_no_such_file.bin"), std::runtime_error);
  EXPECT_FALSE(server.has_model("m2"));
  // Corrupt file hot-swapping an EXISTING name: generation and weights stay.
  {
    std::FILE* f = std::fopen(junk_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not an artifact", f);
    std::fclose(f);
  }
  EXPECT_THROW(server.deploy_file("m", junk_path), std::exception);
  EXPECT_EQ(server.generation("m"), 1u);
  EXPECT_EQ(server.stats("m").generation, 1u);
  {
    const std::vector<Tensor> rows = split_rows(server.forward_batch("m", batch));
    for (std::size_t s = 0; s < rows.size(); ++s) {
      ASSERT_TRUE(matches(rows[s], ref[s])) << "post-failed-deploy sample " << s;
    }
  }
  std::remove(good_path.c_str());
  std::remove(junk_path.c_str());
}

// ------------------------------------------------------- NetServer loopback

runtime::NetServerConfig loopback_config(int executors = 2) {
  runtime::NetServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;  // ephemeral
  config.executors = executors;
  return config;
}

TEST(NetServer, PingListModelsStats) {
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("lenet5-d", lenet(7));
  runtime::NetServer net(server, loopback_config());
  net.start();
  ASSERT_TRUE(net.running());

  runtime::NetClient client("127.0.0.1", net.port());
  client.ping();
  EXPECT_EQ(client.list_models(), (std::vector<std::string>{"lenet5-d"}));
  const std::string json = client.stats_json("lenet5-d");
  EXPECT_NE(json.find("\"generation\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"requests\":"), std::string::npos) << json;
  EXPECT_NE(json.find(std::string("\"kernel_isa\":\"") + cam::kernel_isa() + "\""),
            std::string::npos)
      << json;
  EXPECT_THROW(client.stats_json("ghost"), runtime::UnknownModelError);
  client.ping();  // the error left the connection healthy

  net.stop();
  EXPECT_FALSE(net.running());
  const runtime::NetServerStats stats = net.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GE(stats.frames, 5u);
  EXPECT_EQ(stats.replies_error, 1u);  // the ghost stats lookup
  EXPECT_EQ(stats.kernel_isa, cam::kernel_isa());
  util::set_global_threads(1);
}

// The acceptance guarantee: wire replies are byte-identical to direct
// Server::forward_batch results for a float model, a CAM-export model, and
// ResNet20 — under 5 concurrent connections (>= 4 required).
TEST(NetServer, BitwiseIdentityForEveryModelUnderConcurrentConnections) {
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("lenet-d", lenet(7));
  server.deploy("lenet-a", lenet(19, models::Variant::PecanA), {runtime::ExecPath::Cam});
  server.deploy("resnet", resnet(109));

  struct RefModel {
    std::string name;
    Tensor batch;
    std::vector<Tensor> rows;
  };
  std::vector<RefModel> refs;
  {
    Rng data(11);
    runtime::Engine direct(lenet(7));
    Tensor batch = lenet_batch(data, 4);
    refs.push_back({"lenet-d", batch, split_rows(direct.forward_batch(batch))});
  }
  {
    Rng data(13);
    runtime::Engine direct(lenet(19, models::Variant::PecanA), {runtime::ExecPath::Cam});
    Tensor batch = lenet_batch(data, 4);
    refs.push_back({"lenet-a", batch, split_rows(direct.forward_batch(batch))});
  }
  {
    Rng data(17);
    runtime::Engine direct(resnet(109));
    Tensor batch = data.randn({2, 3, 32, 32});
    refs.push_back({"resnet", batch, split_rows(direct.forward_batch(batch))});
  }

  runtime::NetServer net(server, loopback_config(4));
  net.start();

  constexpr int kConnections = 5;  // acceptance requires >= 4
  constexpr int kReps = 2;
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&] {
      runtime::NetClient client("127.0.0.1", net.port());
      for (int rep = 0; rep < kReps; ++rep) {
        for (const RefModel& ref : refs) {
          // Whole batch over the wire...
          const std::vector<Tensor> rows = split_rows(client.infer_batch(ref.name, ref.batch));
          ASSERT_EQ(rows.size(), ref.rows.size());
          for (std::size_t s = 0; s < rows.size(); ++s) {
            ASSERT_TRUE(matches(rows[s], ref.rows[s]))
                << ref.name << " INFER_BATCH sample " << s;
          }
          // ...and per-sample INFERs (micro-batched across connections).
          for (std::int64_t s = 0; s < ref.batch.dim(0); ++s) {
            const Tensor row = client.infer(ref.name, nth_sample(ref.batch, s));
            ASSERT_TRUE(matches(row, ref.rows[static_cast<std::size_t>(s)]))
                << ref.name << " INFER sample " << s;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  net.stop();
  const runtime::NetServerStats stats = net.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kConnections));
  EXPECT_EQ(stats.replies_error, 0u);
  EXPECT_EQ(stats.sheds, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  // Every request got exactly one Ok reply: 3 batches + 10 samples per rep.
  EXPECT_EQ(stats.replies_ok, static_cast<std::uint64_t>(kConnections * kReps * 13));
  util::set_global_threads(1);
}

// Priority over the wire, end to end: tagged INFERs serve bitwise-identically
// to untagged ones (priority moves scheduling, never math), and the STATS verb
// exposes the per-class counters and controller state.
TEST(NetServer, PriorityTaggedInfersServeBitwiseIdenticallyAndShowInStats) {
  util::set_global_threads(2);
  Rng data(23);
  const Tensor batch = lenet_batch(data, 4);
  std::vector<Tensor> ref;
  {
    runtime::Engine direct(lenet(7));
    ref = split_rows(direct.forward_batch(batch));
  }

  runtime::Server server;
  runtime::EngineConfig config;
  config.priority_classes = 4;
  server.deploy("lenet5-d", lenet(7), config);
  runtime::NetServer net(server, loopback_config());
  net.start();

  runtime::NetClient client("127.0.0.1", net.port());
  // Pipeline one request per priority class, then collect the replies by id.
  std::map<std::uint64_t, std::int64_t> sample_of;
  for (std::int64_t s = 0; s < 4; ++s) {
    sample_of[client.send_infer("lenet5-d", nth_sample(batch, s),
                                static_cast<std::uint8_t>(s))] = s;
  }
  for (int i = 0; i < 4; ++i) {
    const runtime::NetClient::Reply reply = client.recv();
    ASSERT_EQ(reply.status, wire::Status::Ok);
    ASSERT_TRUE(sample_of.count(reply.request_id));
    const std::int64_t s = sample_of[reply.request_id];
    EXPECT_TRUE(matches(reply.tensor, ref[static_cast<std::size_t>(s)])) << "sample " << s;
  }
  // Untagged sync INFER on the same connection still serves (default class).
  EXPECT_TRUE(matches(client.infer("lenet5-d", nth_sample(batch, 0)), ref[0]));

  const std::string json = client.stats_json("lenet5-d");
  EXPECT_NE(json.find("\"classes\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"eff_max_batch\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth_cap\":"), std::string::npos) << json;

  net.stop();
  const runtime::NetServerStats stats = net.stats();
  EXPECT_EQ(stats.replies_error, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.replies_ok, 6u);  // 5 INFERs + 1 STATS
  util::set_global_threads(1);
}

/// The keys of the JSON object that opens at json[open], in order. Nested
/// objects and arrays are skipped, so only that object's own keys count.
std::vector<std::string> object_keys(const std::string& json, std::size_t open) {
  std::vector<std::string> keys;
  int depth = 0;
  for (std::size_t i = open; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      std::size_t end = i + 1;
      while (json[end] != '"') end += json[end] == '\\' ? 2 : 1;
      if (depth == 1 && json[end + 1] == ':') keys.push_back(json.substr(i + 1, end - i - 1));
      i = end;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      break;
    }
  }
  return keys;
}

/// Where the value of the first `"<key>":` in json starts (just past `prefix`,
/// which is `{` for an object or `[{` for the first entry of an array).
std::size_t value_of(const std::string& json, const std::string& key, const std::string& prefix) {
  const std::size_t at = json.find("\"" + key + "\":" + prefix);
  EXPECT_NE(at, std::string::npos) << key << " in " << json;
  return at == std::string::npos ? json.size() : at + key.size() + 3 + prefix.size() - 1;
}

// Every field of the five stats lists reaches the wire as a key of its own
// struct's object, in list order, nested the way the structs nest. A CAM
// model with several priority classes makes `classes` and `banks` non-empty.
TEST(NetServer, StatsReplyCarriesEveryListedField) {
  util::set_global_threads(2);
  runtime::Server server;
  runtime::EngineConfig config;
  config.path = runtime::ExecPath::Cam;
  config.priority_classes = 2;
  server.deploy("lenet5-cam", lenet(7), config);
  runtime::NetServer net(server, loopback_config());
  net.start();

  runtime::NetClient client("127.0.0.1", net.port());
  Rng data(43);
  (void)client.infer("lenet5-cam", nth_sample(lenet_batch(data, 1), 0), /*priority=*/1);
  const std::string json = client.stats_json("lenet5-cam");

  std::vector<std::string> top = {"model"}, engine, klass, bank, netk;
#define PECAN_TOP(type, name, init, unit) top.push_back(#name);
#define PECAN_ENGINE(type, name, init, unit) engine.push_back(#name);
#define PECAN_CLASS(type, name, init, unit) klass.push_back(#name);
#define PECAN_BANK(type, name, init, unit) bank.push_back(#name);
#define PECAN_NET(type, name, init, unit) netk.push_back(#name);
  PECAN_MODEL_SERVER_STATS_FIELDS(PECAN_TOP)
  PECAN_ENGINE_STATS_FIELDS(PECAN_ENGINE)
  PECAN_ENGINE_CLASS_STATS_FIELDS(PECAN_CLASS)
  PECAN_BANK_STATS_FIELDS(PECAN_BANK)
  PECAN_NET_SERVER_STATS_FIELDS(PECAN_NET)
#undef PECAN_TOP
#undef PECAN_ENGINE
#undef PECAN_CLASS
#undef PECAN_BANK
#undef PECAN_NET
  top.push_back("net");

  ASSERT_EQ(json.front(), '{') << json;
  EXPECT_EQ(object_keys(json, 0), top) << json;
  EXPECT_EQ(object_keys(json, value_of(json, "engine", "{")), engine) << json;
  EXPECT_EQ(object_keys(json, value_of(json, "classes", "[{")), klass) << json;
  EXPECT_EQ(object_keys(json, value_of(json, "banks", "[{")), bank) << json;
  EXPECT_EQ(object_keys(json, value_of(json, "net", "{")), netk) << json;

  EXPECT_EQ(json.rfind("{\"model\":\"lenet5-cam\",\"generation\":1,", 0), 0u) << json;
  EXPECT_NE(json.find("\"engine\":{\"requests\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"classes\":[{\"requests\":0,"), std::string::npos) << json;
  EXPECT_NE(json.find("},{\"requests\":1,"), std::string::npos) << json;  // class 1
  EXPECT_NE(json.find(",\"net\":{\"connections_accepted\":1,"), std::string::npos) << json;
  EXPECT_EQ(json.back(), '}');

  net.stop();
  util::set_global_threads(1);
}

// A DEPLOY frame may carry any bytes as the model name; STATS must still
// answer with valid JSON, so string values are escaped and bytes that are
// not well-formed UTF-8 become U+FFFD.
TEST(NetServer, StatsEscapesTheModelName) {
  util::set_global_threads(2);
  const std::string path = "/tmp/pecan_net_stats_escape.bin";
  {
    auto model = lenet(7);
    runtime::save_artifact(path, runtime::make_artifact("lenet5", models::Variant::PecanD, 10,
                                                        *model));
  }
  runtime::Server server;
  runtime::NetServer net(server, loopback_config());
  net.start();
  runtime::NetClient client("127.0.0.1", net.port());

  const std::string name = "a\"b\\c";
  EXPECT_EQ(client.deploy(name, path), 1u);
  const std::string json = client.stats_json(name);
  EXPECT_NE(json.find(R"("model":"a\"b\\c")"), std::string::npos) << json;

  // A stray 0xFF, a valid two-byte "é", an overlong "/" (C0 AF) and a lead
  // byte cut off by the end of the name.
  const std::string raw = std::string("x\xff") + "y\xc3\xa9" + "\xc0\xaf" + "z\xc3";
  EXPECT_EQ(client.deploy(raw, path), 1u);
  const std::string raw_json = client.stats_json(raw);
  EXPECT_NE(raw_json.find(R"("model":"x\ufffdy)" "\xc3\xa9" R"(\ufffd\ufffdz\ufffd",)"),
            std::string::npos)
      << raw_json;

  net.stop();
  std::remove(path.c_str());
  util::set_global_threads(1);
}

// The acceptance guarantee, part two: a hot-swap lands mid-traffic and no
// wire request is lost; every reply is entirely one generation's weights.
TEST(NetServer, HotSwapMidTrafficLosesNoRequestAndNeverMixesWeights) {
  util::set_global_threads(2);
  constexpr int kConnections = 4;
  constexpr int kPerClient = 16;
  constexpr std::int64_t kSamples = 4;

  Rng data(211);
  const Tensor batch = lenet_batch(data, kSamples);
  std::vector<Tensor> ref_old, ref_new;
  {
    runtime::Engine direct(lenet(7));
    ref_old = split_rows(direct.forward_batch(batch));
  }
  {
    runtime::Engine direct(lenet(8));
    ref_new = split_rows(direct.forward_batch(batch));
  }
  for (std::size_t s = 0; s < static_cast<std::size_t>(kSamples); ++s) {
    ASSERT_FALSE(matches(ref_old[s], ref_new[s])) << "generations must be distinguishable";
  }

  runtime::Server server;
  runtime::EngineConfig config;
  config.max_batch = 4;
  config.batch_wait = std::chrono::microseconds(100);
  server.deploy("m", lenet(7), config);

  runtime::NetServer net(server, loopback_config(4));
  net.start();

  std::atomic<std::uint64_t> served{0}, matched_old{0}, matched_new{0}, mixed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&] {
      runtime::NetClient client("127.0.0.1", net.port());
      for (int r = 0; r < kPerClient; ++r) {
        const auto s = static_cast<std::size_t>(r % kSamples);
        // No exception path: block-mode admission, model never undeployed —
        // every request sent must come back with real logits.
        const Tensor row = client.infer("m", nth_sample(batch, static_cast<std::int64_t>(s)));
        served.fetch_add(1);
        const bool is_old = matches(row, ref_old[s]);
        const bool is_new = matches(row, ref_new[s]);
        if (is_old) matched_old.fetch_add(1);
        if (is_new) matched_new.fetch_add(1);
        if (!is_old && !is_new) mixed.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(5ms);  // let traffic start, then swap under it
  const std::uint64_t generation = server.deploy("m", lenet(8), config);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(generation, 2u);
  // Zero lost requests across the swap: every infer() returned.
  EXPECT_EQ(served.load(), static_cast<std::uint64_t>(kConnections * kPerClient));
  // ...and no reply ever mixed the two weight generations.
  EXPECT_EQ(mixed.load(), 0u);
  EXPECT_EQ(matched_old.load() + matched_new.load(), served.load());

  // The new generation serves bitwise-correctly over the wire afterwards.
  {
    runtime::NetClient client("127.0.0.1", net.port());
    const std::vector<Tensor> rows = split_rows(client.infer_batch("m", batch));
    for (std::size_t s = 0; s < rows.size(); ++s) {
      ASSERT_TRUE(matches(rows[s], ref_new[s])) << "post-swap sample " << s;
    }
  }
  net.stop();
  EXPECT_EQ(net.stats().replies_error, 0u);
  util::set_global_threads(1);
}

TEST(NetServer, BadRequestAndUnknownModelLeaveConnectionUsable) {
  util::set_global_threads(2);
  runtime::Server server;
  Rng data(11);
  server.deploy("m", lenet(7));
  const Tensor batch = lenet_batch(data, 1);
  const Tensor ref = split_rows(runtime::Engine(lenet(7)).forward_batch(batch))[0];

  runtime::NetServer net(server, loopback_config());
  net.start();
  runtime::NetClient client("127.0.0.1", net.port());

  // Wrong sample rank: well-framed, semantically invalid -> BAD_REQUEST,
  // surfaced as invalid_argument — and the connection survives.
  EXPECT_THROW(client.infer("m", Tensor({2, 2})), std::invalid_argument);
  // Unknown model -> UNKNOWN_MODEL, same connection.
  EXPECT_THROW(client.infer("ghost", nth_sample(batch, 0)), runtime::UnknownModelError);
  // InferBatch with a sample-shaped tensor is equally a BAD_REQUEST.
  EXPECT_THROW(client.infer_batch("m", nth_sample(batch, 0)), std::invalid_argument);
  // After three rejected requests the same connection still serves.
  EXPECT_TRUE(matches(client.infer("m", nth_sample(batch, 0)), ref));

  net.stop();
  const runtime::NetServerStats stats = net.stats();
  EXPECT_EQ(stats.replies_error, 3u);
  EXPECT_EQ(stats.decode_errors, 0u);  // none of these poisoned the stream
  util::set_global_threads(1);
}

/// Reads frames from a raw fd until one decodes (or EOF/poison). Returns
/// true and fills `out` when a frame arrived.
bool recv_frame_raw(int fd, wire::Decoder& decoder, wire::FrameView& out) {
  std::uint8_t buf[4096];
  for (;;) {
    switch (decoder.next(out)) {
      case wire::Decoder::Result::Frame: return true;
      case wire::Decoder::Result::Error: return false;
      case wire::Decoder::Result::NeedMore: break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

TEST(NetServer, GarbageBytesGetOneBadFrameReplyThenClose) {
  util::set_global_threads(2);
  runtime::Server server;
  server.deploy("m", lenet(7));
  runtime::NetServer net(server, loopback_config());
  net.start();

  // Pure garbage: bad magic. The reply must be a clean BAD_FRAME frame with
  // request id 0 (the header was untrustworthy), then EOF — never a silent
  // drop, never a hang.
  {
    util::Fd fd(util::tcp_connect("127.0.0.1", net.port()));
    std::vector<std::uint8_t> garbage(64, 0xAB);
    ASSERT_TRUE(util::send_all(fd.get(), garbage.data(), garbage.size()));
    wire::Decoder decoder;
    wire::FrameView frame;
    ASSERT_TRUE(recv_frame_raw(fd.get(), decoder, frame));
    EXPECT_EQ(frame.status, wire::Status::BadFrame);
    EXPECT_EQ(frame.request_id, 0u);
    std::uint8_t byte;
    EXPECT_EQ(::recv(fd.get(), &byte, 1, 0), 0);  // orderly close after the reply
  }

  // Unsupported version: the header's magic is fine, so the BAD_FRAME reply
  // echoes the request id the client chose.
  {
    util::Fd fd(util::tcp_connect("127.0.0.1", net.port()));
    std::vector<std::uint8_t> bytes = one_frame(wire::Opcode::Ping, wire::Status::Ok, 424242, "");
    bytes[4] = 0x07;
    ASSERT_TRUE(util::send_all(fd.get(), bytes.data(), bytes.size()));
    wire::Decoder decoder;
    wire::FrameView frame;
    ASSERT_TRUE(recv_frame_raw(fd.get(), decoder, frame));
    EXPECT_EQ(frame.status, wire::Status::BadFrame);
    EXPECT_EQ(frame.request_id, 424242u);
    std::uint8_t byte;
    EXPECT_EQ(::recv(fd.get(), &byte, 1, 0), 0);
  }

  // Unknown opcode: well-FRAMED, so it is a BAD_REQUEST and the connection
  // stays open — a subsequent ping on the same socket answers.
  {
    util::Fd fd(util::tcp_connect("127.0.0.1", net.port()));
    const std::vector<std::uint8_t> bytes =
        one_frame(static_cast<wire::Opcode>(99), wire::Status::Ok, 5, "");
    ASSERT_TRUE(util::send_all(fd.get(), bytes.data(), bytes.size()));
    wire::Decoder decoder;
    wire::FrameView frame;
    ASSERT_TRUE(recv_frame_raw(fd.get(), decoder, frame));
    EXPECT_EQ(frame.status, wire::Status::BadRequest);
    EXPECT_EQ(frame.request_id, 5u);
    const std::vector<std::uint8_t> ping = one_frame(wire::Opcode::Ping, wire::Status::Ok, 6, "");
    ASSERT_TRUE(util::send_all(fd.get(), ping.data(), ping.size()));
    ASSERT_TRUE(recv_frame_raw(fd.get(), decoder, frame));
    EXPECT_EQ(frame.status, wire::Status::Ok);
    EXPECT_EQ(frame.request_id, 6u);
  }

  net.stop();
  EXPECT_EQ(net.stats().decode_errors, 2u);  // garbage + bad version
  util::set_global_threads(1);
}

TEST(NetServer, OverloadShedsWithOverloadedStatusAndAnswersEverything) {
  util::set_global_threads(2);
  Rng data(307);
  const Tensor batch = lenet_batch(data, 4);
  std::vector<Tensor> ref;
  {
    runtime::Engine direct(lenet(7));
    ref = split_rows(direct.forward_batch(batch));
  }

  runtime::Server server;
  runtime::EngineConfig config;
  config.max_batch = 1;    // consume one sample per inference
  config.max_pending = 1;  // tiny pending queue: bursts must shed
  config.backpressure = runtime::Backpressure::Reject;
  server.deploy("m", lenet(7), config);
  runtime::NetServer net(server, loopback_config(4));
  net.start();

  // Pipelined bursts from two connections against 4 executors racing into a
  // 1-deep reject-mode queue. Sheds are timing-dependent per round, so loop
  // rounds until one lands — but EVERY request must be answered either way.
  constexpr int kBurst = 24;
  std::uint64_t ok = 0, shed = 0, sent = 0;
  for (int round = 0; round < 6 && shed == 0; ++round) {
    runtime::NetClient a("127.0.0.1", net.port()), b("127.0.0.1", net.port());
    std::map<std::uint64_t, std::size_t> sample_of_a, sample_of_b;
    for (int r = 0; r < kBurst; ++r) {
      const auto s = static_cast<std::size_t>(r % batch.dim(0));
      sample_of_a[a.send_infer("m", nth_sample(batch, static_cast<std::int64_t>(s)))] = s;
      sample_of_b[b.send_infer("m", nth_sample(batch, static_cast<std::int64_t>(s)))] = s;
      sent += 2;
    }
    const auto drain = [&](runtime::NetClient& client,
                           std::map<std::uint64_t, std::size_t>& sample_of) {
      for (int r = 0; r < kBurst; ++r) {
        const runtime::NetClient::Reply reply = client.recv();
        ASSERT_EQ(sample_of.count(reply.request_id), 1u);
        if (reply.status == wire::Status::Ok) {
          ++ok;
          EXPECT_TRUE(matches(reply.tensor, ref[sample_of[reply.request_id]]));
        } else {
          ASSERT_EQ(reply.status, wire::Status::Overloaded) << reply.text;
          ++shed;
        }
      }
    };
    drain(a, sample_of_a);
    drain(b, sample_of_b);
  }
  EXPECT_GE(shed, 1u) << "reject-mode burst never shed in 6 rounds";
  EXPECT_EQ(ok + shed, sent);  // one reply per request, none lost

  net.stop();
  const runtime::NetServerStats stats = net.stats();
  EXPECT_EQ(stats.sheds, shed);
  EXPECT_EQ(stats.replies_ok + stats.replies_error, sent);
  util::set_global_threads(1);
}

TEST(NetServer, DeployOverTheWireAndFailedDeployKeepsServing) {
  util::set_global_threads(2);
  const std::string path_a = "/tmp/pecan_net_wire_deploy_a.bin";
  const std::string path_b = "/tmp/pecan_net_wire_deploy_b.bin";
  Rng data(41);
  const Tensor batch = lenet_batch(data, 2);

  std::vector<Tensor> ref_a, ref_b;
  {
    auto net_a = lenet(7);
    runtime::save_artifact(path_a, runtime::make_artifact("lenet5", models::Variant::PecanD, 10,
                                                          *net_a));
    ref_a = split_rows(runtime::Engine(lenet(7)).forward_batch(batch));
  }
  {
    auto net_b = lenet(8);
    runtime::save_artifact(path_b, runtime::make_artifact("lenet5", models::Variant::PecanD, 10,
                                                          *net_b));
    ref_b = split_rows(runtime::Engine(lenet(8)).forward_batch(batch));
  }

  runtime::Server server;
  runtime::NetServer net(server, loopback_config());
  net.start();
  runtime::NetClient client("127.0.0.1", net.port());

  // First DEPLOY brings the model up from an empty model table.
  EXPECT_EQ(client.deploy("m", path_a), 1u);
  EXPECT_EQ(client.list_models(), (std::vector<std::string>{"m"}));
  EXPECT_TRUE(matches(client.infer("m", nth_sample(batch, 0)), ref_a[0]));
  // Second DEPLOY hot-swaps to generation 2.
  EXPECT_EQ(client.deploy("m", path_b), 2u);
  EXPECT_TRUE(matches(client.infer("m", nth_sample(batch, 0)), ref_b[0]));
  // A failing DEPLOY (missing file) errors over the wire and leaves
  // generation 2 serving, untouched.
  EXPECT_THROW(client.deploy("m", "/tmp/pecan_net_no_such_artifact.bin"), std::runtime_error);
  EXPECT_EQ(server.generation("m"), 2u);
  EXPECT_TRUE(matches(client.infer("m", nth_sample(batch, 0)), ref_b[0]));

  net.stop();
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  util::set_global_threads(1);
}

TEST(NetServer, GracefulDrainFlushesEveryInFlightReply) {
  util::set_global_threads(2);
  runtime::Server server;
  Rng data(17);
  server.deploy("resnet", resnet(109));
  const Tensor batch = data.randn({4, 3, 32, 32});
  const std::vector<Tensor> ref = split_rows(runtime::Engine(resnet(109)).forward_batch(batch));

  runtime::NetServer net(server, loopback_config());
  net.start();
  runtime::NetClient client("127.0.0.1", net.port());

  // Pipeline 4 infers, then a ping. The reactor handles frames in arrival
  // order, so the ping REPLY proves all four infers are already dispatched —
  // the stop() below races only the executions, never the reads.
  std::map<std::uint64_t, std::size_t> sample_of;
  for (std::int64_t s = 0; s < batch.dim(0); ++s) {
    sample_of[client.send_infer("resnet", nth_sample(batch, s))] = static_cast<std::size_t>(s);
  }
  const std::uint64_t ping_id = client.send_ping();

  std::size_t got = 0;
  bool ping_seen = false;
  std::thread stopper;
  while (got < sample_of.size()) {
    const runtime::NetClient::Reply reply = client.recv();
    if (reply.request_id == ping_id) {
      ping_seen = true;
      // All in-flight now: drain concurrently with the remaining replies.
      stopper = std::thread([&net] { net.stop(); });
      continue;
    }
    ASSERT_EQ(reply.status, wire::Status::Ok) << reply.text;
    ASSERT_EQ(sample_of.count(reply.request_id), 1u);
    EXPECT_TRUE(matches(reply.tensor, ref[sample_of[reply.request_id]]));
    ++got;
  }
  EXPECT_TRUE(ping_seen);
  EXPECT_EQ(got, sample_of.size());  // drain flushed every accepted request
  if (stopper.joinable()) stopper.join();
  EXPECT_FALSE(net.running());
  // After the drain the server closed the connection in an orderly way.
  EXPECT_THROW((void)client.recv(), std::runtime_error);
  util::set_global_threads(1);
}

}  // namespace
}  // namespace pecan
