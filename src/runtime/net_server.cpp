#include "runtime/net_server.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "runtime/server.hpp"  // UnknownModelError
#include "tensor/serialize.hpp"
#include "util/fault_injector.hpp"
#include "util/timer.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace pecan::runtime {

namespace {

/// Largest frame a connection accepts; a longer length prefix poisons it.
constexpr std::size_t kMaxFrameBytes = wire::kDefaultMaxFrameBytes;
/// Upper bound on stop(): a wedged peer cannot hold shutdown hostage.
constexpr std::chrono::milliseconds kDrainTimeout{5000};
/// Classes of the executor job queue; a wire priority byte clamps into it.
constexpr std::size_t kPriorityClasses = 4;

}  // namespace

// ------------------------------------------------------------------ plumbing

/// One live client connection. The reactor owns the fd, the decoder, and the
/// poller-interest mirrors (reactor-thread only); executors touch only the
/// mutex-guarded write queue and the atomic closed flag.
struct NetServer::Conn {
  explicit Conn(int raw_fd) : fd(raw_fd), decoder(kMaxFrameBytes) {}

  util::Fd fd;
  wire::Decoder decoder;

  std::mutex write_mutex;
  std::deque<std::vector<std::uint8_t>> write_queue;
  std::size_t write_offset = 0;  ///< bytes of the front buffer already sent

  std::atomic<bool> closed{false};

  // Reactor-thread state.
  bool reading = true;           ///< false once draining or stream-poisoned
  bool want_write = false;       ///< poller write-interest mirror
  bool close_after_flush = false;
};

/// One work-bearing request in flight between reactor and executors.
struct NetServer::Job {
  std::shared_ptr<Conn> conn;
  wire::Opcode opcode = wire::Opcode::Ping;
  std::uint64_t request_id = 0;
  std::string model;
  Tensor tensor;     ///< INFER / INFER_BATCH payload
  std::string text;  ///< DEPLOY artifact path
  std::uint8_t priority = 0;  ///< wire priority byte (0 when absent)
  /// Absolute deadline, anchored at frame receipt from the wire's relative
  /// deadline_ms; max() = none. Enforced before execution and (for INFER)
  /// forwarded into the engine's admission + expiry sweep.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

void NetServer::Poller::set(int fd, bool rd, bool wr) {
  interest_[fd] = static_cast<short>((rd ? POLLIN : 0) | (wr ? POLLOUT : 0));
}

void NetServer::Poller::wait(std::vector<Event>& out, int timeout_ms) {
  out.clear();
  fds_.clear();
  for (const auto& [fd, ev] : interest_) fds_.push_back({fd, ev, 0});
  const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
  if (n <= 0) return;
  for (const pollfd& p : fds_) {
    if (p.revents == 0) continue;
    Event ev;
    ev.fd = p.fd;
    ev.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
    ev.writable = (p.revents & POLLOUT) != 0;
    ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
    out.push_back(ev);
  }
}

// ----------------------------------------------------------------- lifecycle

NetServer::NetServer(Server& server, NetServerConfig config)
    : server_(server),
      config_(std::move(config)),
      jobs_(kPriorityClasses) {
  if (config_.executors < 1) {
    throw std::invalid_argument("NetServer: executors must be >= 1");
  }
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  if (started_.exchange(true)) throw std::logic_error("NetServer::start: already started");

  port_ = config_.port;
  listen_fd_.reset(util::tcp_listen(config_.host, port_, /*backlog=*/128));
  util::set_nonblocking(listen_fd_.get(), true);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error(std::string("NetServer: pipe failed: ") + std::strerror(errno));
  }
  wake_read_.reset(pipe_fds[0]);
  wake_write_.reset(pipe_fds[1]);
  util::set_nonblocking(wake_read_.get(), true);
  util::set_nonblocking(wake_write_.get(), true);

  poller_.set(listen_fd_.get(), /*rd=*/true, /*wr=*/false);
  poller_.set(wake_read_.get(), /*rd=*/true, /*wr=*/false);

  running_.store(true, std::memory_order_release);
  for (int i = 0; i < config_.executors; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
  reactor_ = std::thread([this] { reactor_loop(); });
}

void NetServer::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  wake_reactor();
  reactor_.join();
  // No reader remains, so no new jobs; close() lets the executors finish the
  // queued ones (their replies are dropped past the drain deadline — the
  // conns are flagged closed) and exit.
  jobs_.close();
  for (std::thread& t : executors_) t.join();
  executors_.clear();
  wake_read_.reset();
  wake_write_.reset();
  running_.store(false, std::memory_order_release);
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  NetServerStats out = stats_;
  // Live gauge, not a counter: 0 once every dispatched job posted its reply.
  // Tests assert it returns to 0 after connection deaths — a leaked slot
  // (executor stuck, ledger not decremented) shows up here.
  out.jobs_in_flight = in_flight_.load(std::memory_order_acquire);
  out.kernel_isa = cam::kernel_isa();
  return out;
}

// ------------------------------------------------------------------- reactor

void NetServer::wake_reactor() {
  const char byte = 1;
  // A full pipe already guarantees a pending wake-up; errors are ignorable.
  [[maybe_unused]] const ssize_t rc = ::write(wake_write_.get(), &byte, 1);
}

void NetServer::reactor_loop() {
  std::vector<Poller::Event> events;
  util::Timer drain_timer;
  bool drain_started = false;

  for (;;) {
    // Flush connections executors just posted replies to.
    std::vector<std::shared_ptr<Conn>> dirty;
    {
      std::lock_guard<std::mutex> lock(dirty_mutex_);
      dirty.swap(dirty_);
    }
    for (const std::shared_ptr<Conn>& conn : dirty) {
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if (!flush_writes(conn)) close_conn(conn);
    }

    if (draining_.load(std::memory_order_acquire)) {
      if (!drain_started) {
        drain_started = true;
        drain_timer.reset();
        // Stop accepting and stop reading: no new requests enter; in-flight
        // ones keep executing and their replies keep flushing.
        if (listen_fd_.valid()) {
          poller_.del(listen_fd_.get());
          listen_fd_.reset();
        }
        for (auto& [fd, conn] : conns_) {
          conn->reading = false;
          poller_.set(fd, /*rd=*/false, conn->want_write);
        }
      }
      bool flushed = true;
      for (auto& [fd, conn] : conns_) {
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        if (!conn->write_queue.empty()) {
          flushed = false;
          break;
        }
      }
      const bool drained = in_flight_.load(std::memory_order_acquire) == 0 && flushed;
      const bool expired =
          drain_timer.elapsed_ms() >= static_cast<double>(kDrainTimeout.count());
      if (drained || expired) break;
    }

    poller_.wait(events, drain_started ? 10 : 200);
    for (const Poller::Event& ev : events) {
      if (listen_fd_.valid() && ev.fd == listen_fd_.get()) {
        accept_ready();
        continue;
      }
      if (ev.fd == wake_read_.get()) {
        char buf[256];
        while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;  // keep alive across handlers
      if (ev.error) {
        close_conn(conn);
        continue;
      }
      if (ev.readable && conn->reading) handle_readable(conn);
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if (ev.writable && !flush_writes(conn)) close_conn(conn);
    }
  }

  // Drain finished (or deadline hit): tear every connection down. Executors
  // that still hold a Conn see the closed flag and drop their replies.
  for (auto& [fd, conn] : conns_) conn->closed.store(true, std::memory_order_release);
  conns_.clear();
}

void NetServer::accept_ready() {
  for (;;) {
    const int cfd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN — accepted everything pending
    }
    try {
      util::set_nonblocking(cfd, true);
      util::set_tcp_nodelay(cfd);
    } catch (const std::runtime_error&) {
      ::close(cfd);
      continue;
    }
    auto conn = std::make_shared<Conn>(cfd);
    conns_[cfd] = conn;
    poller_.set(cfd, /*rd=*/true, /*wr=*/false);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections_accepted;
    ++stats_.connections_active;
  }
}

void NetServer::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = conn->fd.get();
  poller_.del(fd);
  conns_.erase(fd);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  --stats_.connections_active;
}

void NetServer::handle_readable(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    // Fault site: cap the recv BEFORE the syscall so frames arrive torn into
    // tiny pieces — the Decoder must reassemble them byte by byte. Capping
    // (rather than discarding) never loses stream bytes.
    const std::size_t want = PECAN_FAULT_POINT("net.read_short") ? 1 : sizeof(buf);
    const ssize_t n = ::recv(conn->fd.get(), buf, want, 0);
    if (n == 0) {  // peer closed
      close_conn(conn);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(conn);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.bytes_in += static_cast<std::uint64_t>(n);
    }
    conn->decoder.feed(buf, static_cast<std::size_t>(n));
    wire::FrameView frame;
    for (;;) {
      const wire::Decoder::Result result = conn->decoder.next(frame);
      if (result == wire::Decoder::Result::NeedMore) break;
      if (result == wire::Decoder::Result::Frame) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.frames;
        }
        if (!handle_frame(conn, frame)) return;
        continue;
      }
      // Stream poisoned: one clean BAD_FRAME reply (the promised alternative
      // to a silently dropped connection), then flush and close.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.decode_errors;
      }
      std::vector<std::uint8_t> reply;
      wire::encode_frame(reply, wire::Opcode::Ping, wire::Status::BadFrame,
                         conn->decoder.error_request_id(), {}, conn->decoder.error());
      conn->reading = false;
      conn->close_after_flush = true;
      poller_.set(conn->fd.get(), /*rd=*/false, conn->want_write);
      post_reply(conn, std::move(reply), wire::Status::BadFrame);
      return;
    }
    if (n < static_cast<ssize_t>(want)) return;  // socket drained
  }
}

// --------------------------------------------------------------- STATS reply

namespace {

// JSON writers for the STATS reply: a struct walks its field list
// (util/stats_fields.hpp), keys are field names, doubles print as %.3f.

/// Length of the well-formed UTF-8 sequence at text[i], or 0 if there is none
/// (the lead and second-byte ranges of Unicode's table of well-formed byte
/// sequences rule out overlongs, surrogates and code points past U+10FFFF).
std::size_t utf8_length(std::string_view text, std::size_t i) {
  const auto at = [&](std::size_t k) { return k < text.size() ? std::uint8_t(text[k]) : 0u; };
  const unsigned c = at(i);
  const std::size_t n = c < 0x80 ? 1 : c < 0xC2 ? 0 : c < 0xE0 ? 2 : c < 0xF0 ? 3 : c < 0xF5 ? 4 : 0;
  const unsigned lo = c == 0xE0 ? 0xA0 : c == 0xF0 ? 0x90 : 0x80;
  const unsigned hi = c == 0xED ? 0x9F : c == 0xF4 ? 0x8F : 0xBF;
  if (n > 1 && (at(i + 1) < lo || at(i + 1) > hi)) return 0;
  for (std::size_t k = 2; k < n; ++k) {
    if ((at(i + k) & 0xC0) != 0x80) return 0;
  }
  return n;
}

/// A JSON string: `"` and `\` escaped, control bytes as \u00XX, and each byte
/// outside well-formed UTF-8 as \ufffd, so any name a DEPLOY frame carries
/// still yields a reply that strict JSON parsers accept.
void put(std::string& out, std::string_view text) {
  out += '"';
  for (std::size_t i = 0, n = 0; i < text.size(); i += n == 0 ? 1 : n) {
    const auto ch = static_cast<unsigned char>(text[i]);
    n = utf8_length(text, i);
    if (n == 0 || ch < 0x20) {
      char buf[8];
      out.append(buf, std::snprintf(buf, sizeof(buf), "\\u%04x", n == 0 ? 0xFFFDu : ch));
    } else {
      if (ch == '"' || ch == '\\') out += '\\';
      out.append(text, i, n);
    }
  }
  out += '"';
}
void put(std::string& out, std::uint64_t v) { out += std::to_string(v); }
void put(std::string& out, std::int64_t v) { out += std::to_string(v); }
void put(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::snprintf(buf, sizeof(buf), "%.3f", v));
}
void put(std::string& out, cam::CamPrecision p) { put(out, cam::precision_name(p)); }

void key(std::string& out, const char* name) {
  out += out.back() == '{' ? "\"" : ",\"";
  out += name;
  out += "\":";
}

#define PECAN_PUT_FIELD(type, name, init, unit) key(out, #name); put(out, s.name);
#define PECAN_PUT_STRUCT(T, FIELDS)          \
  void put(std::string& out, const T& s) { \
    out += '{';                            \
    FIELDS(PECAN_PUT_FIELD)                \
    out += '}';                            \
  }

PECAN_PUT_STRUCT(EngineClassStats, PECAN_ENGINE_CLASS_STATS_FIELDS)
PECAN_PUT_STRUCT(cam::BankStats, PECAN_BANK_STATS_FIELDS)
template <class T>
void put(std::string& out, const std::vector<T>& items) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    put(out, items[i]);
  }
  out += ']';
}
PECAN_PUT_STRUCT(EngineStats, PECAN_ENGINE_STATS_FIELDS)
PECAN_PUT_STRUCT(NetServerStats, PECAN_NET_SERVER_STATS_FIELDS)

/// {"model":…, <ModelServerStats fields>, "net":{…}}.
std::string stats_reply(std::string_view model, const ModelServerStats& s,
                        const NetServerStats& net) {
  std::string out = "{";
  key(out, "model");
  put(out, model);
  PECAN_MODEL_SERVER_STATS_FIELDS(PECAN_PUT_FIELD)
  key(out, "net");
  put(out, net);
  return out += '}';
}

#undef PECAN_PUT_STRUCT
#undef PECAN_PUT_FIELD

}  // namespace

// Returns false when the connection was handed its last frame (poisoned
// streams return through handle_readable instead; this path never closes).
bool NetServer::handle_frame(const std::shared_ptr<Conn>& conn, const wire::FrameView& frame) {
  std::vector<std::uint8_t> reply;
  switch (frame.opcode) {
    case wire::Opcode::Ping: {
      wire::encode_frame(reply, wire::Opcode::Ping, wire::Status::Ok, frame.request_id, {});
      post_reply(conn, std::move(reply), wire::Status::Ok);
      return true;
    }
    case wire::Opcode::ListModels: {
      std::string names;
      for (const std::string& name : server_.models()) {
        if (!names.empty()) names += '\n';
        names += name;
      }
      wire::encode_frame(reply, frame.opcode, wire::Status::Ok, frame.request_id, {}, names);
      post_reply(conn, std::move(reply), wire::Status::Ok);
      return true;
    }
    case wire::Opcode::Stats: {
      const std::string model(frame.model);
      try {
        const std::string json = stats_reply(model, server_.stats(model), stats());
        wire::encode_frame(reply, frame.opcode, wire::Status::Ok, frame.request_id, model, json);
        post_reply(conn, std::move(reply), wire::Status::Ok);
      } catch (const UnknownModelError& e) {
        wire::encode_frame(reply, frame.opcode, wire::Status::UnknownModel, frame.request_id,
                           model, std::string_view(e.what()));
        post_reply(conn, std::move(reply), wire::Status::UnknownModel);
      }
      return true;
    }
    case wire::Opcode::Infer:
    case wire::Opcode::InferBatch: {
      Job job;
      job.conn = conn;
      job.opcode = frame.opcode;
      job.request_id = frame.request_id;
      job.model.assign(frame.model);
      try {
        // Zero-copy hand-off: floats go from the connection buffer straight
        // into the engine-ready sample/batch tensor. The optional trailing
        // priority byte (absent = class 0, the pre-priority wire format)
        // orders the job queue and, for INFER, the engine's admission. An
        // optional relative deadline_ms is anchored HERE, at frame receipt —
        // queue time, batch wait, and execution all burn the same budget.
        std::uint32_t deadline_ms = 0;
        job.tensor =
            wire::decode_tensor_request(frame.payload, frame.payload_len, job.priority, deadline_ms);
        if (deadline_ms != 0) {
          job.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
        }
      } catch (const std::invalid_argument& e) {
        wire::encode_frame(reply, frame.opcode, wire::Status::BadRequest, frame.request_id,
                           frame.model, std::string_view(e.what()));
        post_reply(conn, std::move(reply), wire::Status::BadRequest);
        return true;
      }
      dispatch(conn, std::move(job));
      return true;
    }
    case wire::Opcode::Deploy: {
      Job job;
      job.conn = conn;
      job.opcode = frame.opcode;
      job.request_id = frame.request_id;
      job.model.assign(frame.model);
      job.text.assign(frame.payload_text());
      dispatch(conn, std::move(job));
      return true;
    }
  }
  // Well-framed but unknown opcode: answer and keep the connection.
  wire::encode_frame(reply, frame.opcode, wire::Status::BadRequest, frame.request_id, frame.model,
                     "unknown opcode " +
                         std::to_string(static_cast<std::uint16_t>(frame.opcode)));
  post_reply(conn, std::move(reply), wire::Status::BadRequest);
  return true;
}

// ----------------------------------------------------------------- executors

void NetServer::dispatch(std::shared_ptr<Conn> conn, Job job) {
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t cls = job.priority;  // PriorityBucketQueue clamps to its top class
  if (jobs_.push(job, cls) != util::PushResult::Ok) {
    // Only reachable if a frame sneaks in after drain started: answer
    // honestly instead of dropping the request on the floor.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    std::vector<std::uint8_t> reply;
    wire::encode_frame(reply, job.opcode, wire::Status::EngineStopped, job.request_id, job.model,
                       "server is draining");
    post_reply(conn, std::move(reply), wire::Status::EngineStopped);
  }
}

void NetServer::executor_loop() {
  constexpr auto kNoCoalesce = [](const Job&, const Job&) { return false; };
  std::vector<Job> batch;
  for (;;) {
    batch.clear();
    if (jobs_.pop_batch(batch, 1, std::chrono::microseconds(0), 1, kNoCoalesce) == 0) {
      return;  // queue closed and drained
    }
    execute(batch[0]);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void NetServer::execute(Job& job) {
  // Fault sites: delay a job inside the executor (burning its deadline
  // budget), or kill its connection mid-request. shutdown() — not close() —
  // so the reactor observes the death through its normal HUP/error path and
  // owns the actual teardown; the executor never touches reactor state.
  if (PECAN_FAULT_POINT("net.exec.delay")) {
  }
  if (PECAN_FAULT_POINT("net.exec.kill_conn")) {
    ::shutdown(job.conn->fd.get(), SHUT_RDWR);
  }
  std::vector<std::uint8_t> reply;
  wire::Status status = wire::Status::Ok;
  std::string message;
  try {
    // A deadline that lapsed while the job sat in the executor queue fails
    // fast — no engine submit, no forward, just the honest wire status.
    if (std::chrono::steady_clock::now() >= job.deadline) {
      throw DeadlineExceededError(
          "NetServer: deadline lapsed before execution — expired in the executor queue");
    }
    switch (job.opcode) {
      case wire::Opcode::Infer: {
        Tensor logits =
            server_.submit(job.model, std::move(job.tensor), job.priority, job.deadline).get();
        wire::encode_tensor_frame(reply, job.opcode, wire::Status::Ok, job.request_id, job.model,
                                  logits);
        break;
      }
      case wire::Opcode::InferBatch: {
        Tensor logits = server_.forward_batch(job.model, job.tensor);
        wire::encode_tensor_frame(reply, job.opcode, wire::Status::Ok, job.request_id, job.model,
                                  logits);
        break;
      }
      case wire::Opcode::Deploy: {
        const std::uint64_t generation =
            server_.deploy_file(job.model, job.text, config_.deploy_config);
        wire::encode_frame(reply, job.opcode, wire::Status::Ok, job.request_id, job.model,
                           std::to_string(generation));
        break;
      }
      default:
        status = wire::Status::InternalError;
        message = "executor received non-work opcode";
        break;
    }
  } catch (const DeadlineExceededError& e) {
    status = wire::Status::DeadlineExceeded;
    message = e.what();
  } catch (const OverloadedError& e) {
    status = wire::Status::Overloaded;
    message = e.what();
  } catch (const ArtifactCorruptError& e) {
    // A corrupt artifact is the deployer's bad input, not a server fault;
    // the model table is untouched (deploy_file throws before install).
    status = wire::Status::BadRequest;
    message = e.what();
  } catch (const EngineStoppedError& e) {
    status = wire::Status::EngineStopped;
    message = e.what();
  } catch (const UnknownModelError& e) {
    status = wire::Status::UnknownModel;
    message = e.what();
  } catch (const std::invalid_argument& e) {
    status = wire::Status::BadRequest;
    message = e.what();
  } catch (const std::exception& e) {
    status = wire::Status::InternalError;
    message = e.what();
  }
  if (status != wire::Status::Ok) {
    reply.clear();
    wire::encode_frame(reply, job.opcode, status, job.request_id, job.model, message);
  }
  post_reply(job.conn, std::move(reply), status);
}

// ------------------------------------------------------------------- replies

void NetServer::post_reply(const std::shared_ptr<Conn>& conn, std::vector<std::uint8_t> bytes,
                           wire::Status status) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (status == wire::Status::Ok) {
      ++stats_.replies_ok;
    } else {
      ++stats_.replies_error;
      if (status == wire::Status::Overloaded) ++stats_.sheds;
      if (status == wire::Status::DeadlineExceeded) ++stats_.deadline_expired;
    }
  }
  if (conn->closed.load(std::memory_order_acquire)) return;  // peer already gone
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    conn->write_queue.push_back(std::move(bytes));
  }
  {
    std::lock_guard<std::mutex> lock(dirty_mutex_);
    dirty_.push_back(conn);
  }
  wake_reactor();
}

bool NetServer::flush_writes(const std::shared_ptr<Conn>& conn) {
  const int fd = conn->fd.get();
  std::size_t sent_total = 0;
  bool alive = true;
  bool empty;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    while (!conn->write_queue.empty()) {
      const std::vector<std::uint8_t>& front = conn->write_queue.front();
      const std::size_t remaining = front.size() - conn->write_offset;
      const ssize_t n =
          ::send(fd, front.data() + conn->write_offset, remaining, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // kernel buffer full
        alive = false;  // EPIPE/ECONNRESET — slow client died
        break;
      }
      sent_total += static_cast<std::size_t>(n);
      conn->write_offset += static_cast<std::size_t>(n);
      if (conn->write_offset == front.size()) {
        conn->write_queue.pop_front();
        conn->write_offset = 0;
      }
    }
    empty = conn->write_queue.empty();
  }
  if (sent_total > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.bytes_out += sent_total;
  }
  if (!alive) return false;
  if (empty) {
    if (conn->close_after_flush) return false;  // error reply delivered; close
    if (conn->want_write) {
      conn->want_write = false;
      poller_.set(fd, conn->reading, false);
    }
  } else if (!conn->want_write) {
    conn->want_write = true;
    poller_.set(fd, conn->reading, true);
  }
  return true;
}

}  // namespace pecan::runtime
