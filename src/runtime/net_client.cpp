#include "runtime/net_client.hpp"

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <sys/socket.h>
#include <thread>
#include <utility>

#include "runtime/engine.hpp"          // OverloadedError, EngineStoppedError, DeadlineExceededError
#include "runtime/server.hpp"          // UnknownModelError

namespace pecan::runtime {

namespace {

[[noreturn]] void throw_status(wire::Status status, const std::string& message) {
  const std::string what = std::string(wire::status_name(status)) + ": " + message;
  switch (status) {
    case wire::Status::Overloaded: throw OverloadedError(what);
    case wire::Status::EngineStopped: throw EngineStoppedError(what);
    case wire::Status::UnknownModel: throw UnknownModelError(what);
    case wire::Status::DeadlineExceeded: throw DeadlineExceededError(what);
    case wire::Status::BadRequest:
    case wire::Status::BadFrame: throw std::invalid_argument(what);
    default: throw std::runtime_error(what);
  }
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double unit_draw(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

NetClient::NetClient(const std::string& host, std::uint16_t port, int timeout_ms)
    : NetClient(host, port, RetryPolicy{}, timeout_ms) {}

NetClient::NetClient(const std::string& host, std::uint16_t port, RetryPolicy policy,
                     int timeout_ms)
    : host_(host),
      port_(port),
      timeout_ms_(timeout_ms),
      policy_(policy),
      fd_(util::tcp_connect(host, port, timeout_ms)) {
  if (policy_.max_attempts < 1) {
    throw std::invalid_argument("NetClient: RetryPolicy::max_attempts must be >= 1");
  }
}

void NetClient::reconnect() {
  // Sync path only (the call sites hold no locks and have no concurrent
  // pipelined traffic by contract). The decoder may hold a torn partial
  // frame from the dead connection — reset() gives the fresh stream a clean
  // reassembly state.
  fd_.reset(util::tcp_connect(host_, port_, timeout_ms_));
  decoder_.reset();
  reconnects_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t NetClient::send_frame(wire::Opcode op, const std::string& model,
                                    const Tensor* tensor, std::string_view text,
                                    std::uint8_t priority, std::uint32_t deadline_ms) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint8_t> out;
  if (tensor != nullptr) {
    wire::encode_tensor_frame(out, op, wire::Status::Ok, id, model, *tensor, priority,
                              deadline_ms);
  } else {
    wire::encode_frame(out, op, wire::Status::Ok, id, model, text);
  }
  std::lock_guard<std::mutex> lock(send_mutex_);
  if (!fd_.valid()) throw ConnectionError("NetClient: connection closed");
  if (!util::send_all(fd_.get(), out.data(), out.size())) {
    throw ConnectionError("NetClient: server closed the connection mid-send");
  }
  return id;
}

std::uint64_t NetClient::send_infer(const std::string& model, const Tensor& sample,
                                    std::uint8_t priority, std::uint32_t deadline_ms) {
  return send_frame(wire::Opcode::Infer, model, &sample, {}, priority, deadline_ms);
}

std::uint64_t NetClient::send_infer_batch(const std::string& model, const Tensor& batch,
                                          std::uint8_t priority, std::uint32_t deadline_ms) {
  return send_frame(wire::Opcode::InferBatch, model, &batch, {}, priority, deadline_ms);
}

std::uint64_t NetClient::send_ping() { return send_frame(wire::Opcode::Ping, {}, nullptr, {}); }

NetClient::Reply NetClient::recv() {
  std::lock_guard<std::mutex> lock(recv_mutex_);
  std::uint8_t buf[64 * 1024];
  wire::FrameView frame;
  for (;;) {
    switch (decoder_.next(frame)) {
      case wire::Decoder::Result::Frame: {
        Reply reply;
        reply.request_id = frame.request_id;
        reply.opcode = frame.opcode;
        reply.status = frame.status;
        if (reply.status == wire::Status::Ok &&
            (frame.opcode == wire::Opcode::Infer || frame.opcode == wire::Opcode::InferBatch)) {
          reply.tensor = wire::decode_tensor(frame.payload, frame.payload_len);
        } else {
          reply.text.assign(frame.payload_text());
        }
        return reply;
      }
      case wire::Decoder::Result::Error:
        // The reply stream is unrecoverable (the decoder is poisoned); only
        // a fresh connection can resynchronize, so classify as a
        // connection-level failure for the retry loop.
        throw ConnectionError("NetClient: undecodable reply stream: " + decoder_.error());
      case wire::Decoder::Result::NeedMore: {
        if (!fd_.valid()) throw ConnectionError("NetClient: connection closed");
        const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
        if (n < 0) {
          if (errno == EINTR) continue;
          throw ConnectionError("NetClient: recv failed");
        }
        if (n == 0) throw ConnectionError("NetClient: server closed the connection");
        decoder_.feed(buf, static_cast<std::size_t>(n));
        break;
      }
    }
  }
}

NetClient::Reply NetClient::recv_for(std::uint64_t request_id) {
  // Sync path: with no concurrent pipelined traffic the next reply IS ours;
  // the id check catches misuse rather than reordering.
  Reply reply = recv();
  if (reply.request_id != request_id) {
    throw std::runtime_error("NetClient: reply id " + std::to_string(reply.request_id) +
                             " does not match request " + std::to_string(request_id) +
                             " (sync call mixed with pipelined traffic?)");
  }
  if (reply.status != wire::Status::Ok) throw_status(reply.status, reply.text);
  return reply;
}

NetClient::Reply NetClient::sync_call(wire::Opcode op, const std::string& model,
                                      const Tensor* tensor, std::string_view text,
                                      std::uint8_t priority, std::uint32_t deadline_ms) {
  using clock = std::chrono::steady_clock;
  const bool has_deadline = deadline_ms != 0;
  const clock::time_point deadline = clock::now() + std::chrono::milliseconds(deadline_ms);
  // With a deadline, backoff sleeps may burn at most retry_budget of it; the
  // rest stays available for actual attempts.
  const double backoff_budget_ms =
      has_deadline ? policy_.retry_budget * static_cast<double>(deadline_ms) : 0.0;
  double backoff_spent_ms = 0.0;

  for (int attempt = 1;; ++attempt) {
    attempts_.fetch_add(1, std::memory_order_relaxed);
    bool reconnect_first = false;
    try {
      std::uint32_t wire_deadline = 0;
      if (has_deadline) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline - clock::now());
        if (remaining.count() <= 0) {
          throw DeadlineExceededError(
              "NetClient: request deadline lapsed client-side (after " +
              std::to_string(attempt - 1) + " attempt(s))");
        }
        // Resends carry the SHRUNK remaining budget, never the original.
        wire_deadline = static_cast<std::uint32_t>(remaining.count());
      }
      if (!fd_.valid()) reconnect();
      return recv_for(send_frame(op, model, tensor, text, priority, wire_deadline));
    } catch (const ConnectionError&) {
      // Torn connection: the socket is dead either way; drop it so the next
      // attempt re-dials. Safe to replay — every wire op is idempotent.
      fd_.reset();
      reconnect_first = true;
      if (attempt >= policy_.max_attempts) throw;
    } catch (const OverloadedError&) {
      if (attempt >= policy_.max_attempts) throw;
    } catch (const DeadlineExceededError&) {
      // A client-side lapse (thrown above when the budget hit zero) always
      // propagates. A SERVER-side shed is worth retrying, but only while our
      // own clock still shows budget.
      if (!has_deadline || clock::now() >= deadline || attempt >= policy_.max_attempts) throw;
    }
    // EngineStoppedError, UnknownModelError, invalid_argument, and internal
    // errors propagate: retrying cannot fix a bad request or a gone engine.

    retries_.fetch_add(1, std::memory_order_relaxed);
    double sleep_ms = static_cast<double>(policy_.base_backoff.count());
    for (int i = 1; i < attempt && sleep_ms < static_cast<double>(policy_.max_backoff.count());
         ++i) {
      sleep_ms *= 2.0;
    }
    sleep_ms = std::min(sleep_ms, static_cast<double>(policy_.max_backoff.count()));
    const double j = std::clamp(policy_.jitter, 0.0, 1.0);
    sleep_ms *= 1.0 - j + 2.0 * j * unit_draw(rng_state_);
    if (has_deadline) {
      sleep_ms = std::min(sleep_ms, backoff_budget_ms - backoff_spent_ms);
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - clock::now());
      sleep_ms = std::min(sleep_ms, static_cast<double>(remaining.count()));
    }
    if (sleep_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(sleep_ms * 1000.0)));
      backoff_spent_ms += sleep_ms;
    }
    // Reconnect eagerly after a connection loss so dial time is paid before
    // the next attempt's deadline check, not silently inside send_frame.
    if (reconnect_first && !fd_.valid()) {
      try {
        reconnect();
      } catch (const std::runtime_error&) {
        // Server still down; the next attempt's reconnect() retries the dial
        // (and its failure propagates once attempts run out).
      }
    }
  }
}

Tensor NetClient::infer(const std::string& model, const Tensor& sample, std::uint8_t priority,
                        std::uint32_t deadline_ms) {
  return sync_call(wire::Opcode::Infer, model, &sample, {}, priority, deadline_ms).tensor;
}

Tensor NetClient::infer_batch(const std::string& model, const Tensor& batch,
                              std::uint8_t priority, std::uint32_t deadline_ms) {
  return sync_call(wire::Opcode::InferBatch, model, &batch, {}, priority, deadline_ms).tensor;
}

void NetClient::ping() { sync_call(wire::Opcode::Ping, {}, nullptr, {}, 0, 0); }

std::vector<std::string> NetClient::list_models() {
  const Reply reply = sync_call(wire::Opcode::ListModels, {}, nullptr, {}, 0, 0);
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start < reply.text.size()) {
    std::size_t end = reply.text.find('\n', start);
    if (end == std::string::npos) end = reply.text.size();
    names.push_back(reply.text.substr(start, end - start));
    start = end + 1;
  }
  return names;
}

std::string NetClient::stats_json(const std::string& model) {
  return sync_call(wire::Opcode::Stats, model, nullptr, {}, 0, 0).text;
}

std::uint64_t NetClient::deploy(const std::string& name, const std::string& path) {
  const Reply reply = sync_call(wire::Opcode::Deploy, name, nullptr, path, 0, 0);
  return std::stoull(reply.text);
}

}  // namespace pecan::runtime
