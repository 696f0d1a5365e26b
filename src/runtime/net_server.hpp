// runtime::NetServer — the TCP wire-protocol front door over runtime::Server.
//
// NetServer puts a real socket boundary in front of the serving stack
// (engine micro-batching, hot-swap, admission control, sharded batches),
// speaking the length-prefixed binary protocol of runtime/wire.hpp.
//
// Architecture — one reactor, W executors, replies multiplexed:
//
//   * Reactor thread. A non-blocking accept loop plus per-connection reads,
//     driven by POSIX poll() — the server is sized for a handful of
//     connections, not C10K. The reactor decodes frames straight out of
//     each connection's receive buffer — for INFER/INFER_BATCH the
//     payload floats land directly in the engine-ready Tensor (one
//     socket-buffer→tensor copy, no intermediate frame or batch assembly;
//     the fused im2col_tile path downstream means no contiguous batch tensor
//     is ever materialized for CAM layers). Trivial opcodes (PING,
//     LIST_MODELS, STATS) are answered inline; work-bearing ones (INFER,
//     INFER_BATCH, DEPLOY) are handed to the executor pool through a
//     util::PriorityBucketQueue (highest wire priority class first) so a
//     slow forward never stalls the event loop. A frame's optional priority
//     byte picks the job's class (4 classes; higher bytes clamp to the top)
//     and is forwarded to Server::submit for INFER, where the engine's own
//     priority-bucketed admission applies. Frames without it run at class 0.
//
//   * Executor threads. Each pops a request, drives the Server (submit +
//     future wait — so the engines' micro-batching coalesces requests
//     ACROSS connections — or forward_batch / deploy_file), maps the
//     serving stack's typed exceptions onto wire statuses (OverloadedError
//     → OVERLOADED, EngineStoppedError → ENGINE_STOPPED, UnknownModelError
//     → UNKNOWN_MODEL, std::invalid_argument → BAD_REQUEST), and posts the
//     encoded reply to the connection's write queue.
//
//   * Multiplexed responses. Replies are queued per connection and flushed
//     by the reactor only when the socket is writable — a client that stops
//     reading stalls ONLY its own queue, never the reactor or other
//     connections. Replies carry the request's id, so one connection can
//     pipeline many requests and match answers out of order.
//
//   * Torn/bad frames. Partial reads reassemble through wire::Decoder. A
//     stream-poisoning frame (bad magic/version, oversized length) gets one
//     BAD_FRAME error reply, then the connection is flushed and closed —
//     never silently dropped. A well-framed but invalid request (unknown
//     opcode, malformed tensor, wrong shape) gets its error status and the
//     connection stays open.
//
//   * Graceful drain. stop() closes the listen socket, stops reading from
//     every connection, lets in-flight requests finish and their replies
//     flush, then closes connections and joins threads — bounded by a fixed
//     5 s drain timeout so a wedged peer cannot hold shutdown hostage.
//     Engine hot-swap needs nothing from this layer: the Server's lease
//     semantics already drain the retired engine under live traffic.
//
// The NetServer borrows the Server (not owned); the Server must outlive it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <poll.h>
#include <string>
#include <thread>
#include <vector>

#include "runtime/server.hpp"
#include "runtime/wire.hpp"
#include "util/bounded_queue.hpp"
#include "util/socket.hpp"

namespace pecan::runtime {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral — read the bound port via port()
  int executors = 2;       ///< request-execution threads (>= 1)
  /// Engine config applied to wire DEPLOY requests (execution path, batching,
  /// admission control for models deployed over the network).
  EngineConfig deploy_config{};
};

/// The TCP front-end's counters (NetServer::stats()), live for the process.
#define PECAN_NET_SERVER_STATS_FIELDS(X)             \
  X(std::uint64_t, connections_accepted, 0, "count") \
  X(std::int64_t, connections_active, 0, "gauge")    \
  X(std::uint64_t, frames, 0, "count")               \
  X(std::uint64_t, replies_ok, 0, "count")           \
  X(std::uint64_t, replies_error, 0, "count")        \
  X(std::uint64_t, sheds, 0, "count")                \
  X(std::uint64_t, deadline_expired, 0, "count")     \
  X(std::uint64_t, decode_errors, 0, "count")        \
  X(std::uint64_t, bytes_in, 0, "bytes")             \
  X(std::uint64_t, bytes_out, 0, "bytes")            \
  X(std::int64_t, jobs_in_flight, 0, "gauge")        \
  X(std::string, kernel_isa, {}, "enum")
struct NetServerStats {
  PECAN_NET_SERVER_STATS_FIELDS(PECAN_STATS_MEMBER)
};

class NetServer {
 public:
  explicit NetServer(Server& server, NetServerConfig config = {});
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the reactor + executor threads. Throws on
  /// bind/listen failure (port taken, bad host). Not restartable after
  /// stop().
  void start();

  /// Graceful drain: stop accepting, finish in-flight requests, flush their
  /// replies, close connections, join threads. Bounded by the drain timeout.
  /// Idempotent; also invoked by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the ephemeral one when config.port was 0). Valid after
  /// start().
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return config_.host; }

  NetServerStats stats() const;

 private:
  struct Conn;
  struct Job;

  /// Readiness notification over POSIX poll(): the reactor serves a handful
  /// of connections, so rebuilding the pollfd array per wait costs nothing
  /// measurable. Reactor-thread only.
  class Poller {
   public:
    struct Event {
      int fd = -1;
      bool readable = false;
      bool writable = false;
      bool error = false;
    };
    /// Registers `fd` or replaces its read/write interest.
    void set(int fd, bool rd, bool wr);
    void del(int fd) { interest_.erase(fd); }
    void wait(std::vector<Event>& out, int timeout_ms);

   private:
    std::map<int, short> interest_;
    std::vector<pollfd> fds_;
  };

  void reactor_loop();
  void executor_loop();
  void accept_ready();
  void handle_readable(const std::shared_ptr<Conn>& conn);
  /// Decodes and routes one frame; returns false when the connection must
  /// close (stream poisoned).
  bool handle_frame(const std::shared_ptr<Conn>& conn, const wire::FrameView& frame);
  void dispatch(std::shared_ptr<Conn> conn, Job job);
  void execute(Job& job);
  /// Thread-safe reply path used by executors AND the reactor: enqueues the
  /// encoded frame on the connection and wakes the reactor to flush it.
  void post_reply(const std::shared_ptr<Conn>& conn, std::vector<std::uint8_t> bytes,
                  wire::Status status);
  void wake_reactor();
  void close_conn(const std::shared_ptr<Conn>& conn);
  bool flush_writes(const std::shared_ptr<Conn>& conn);  ///< false = conn died

  Server& server_;
  NetServerConfig config_;
  std::uint16_t port_ = 0;

  util::Fd listen_fd_;
  util::Fd wake_read_, wake_write_;  ///< self-pipe: executors wake the reactor
  Poller poller_;

  std::thread reactor_;
  std::vector<std::thread> executors_;
  util::PriorityBucketQueue<Job> jobs_;
  std::atomic<std::int64_t> in_flight_{0};  ///< dispatched jobs without a posted reply

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::mutex stop_mutex_;  ///< serializes stop() callers

  std::map<int, std::shared_ptr<Conn>> conns_;  ///< reactor-thread only
  std::mutex dirty_mutex_;
  std::vector<std::shared_ptr<Conn>> dirty_;  ///< conns with freshly queued writes

  mutable std::mutex stats_mutex_;
  NetServerStats stats_;
};

}  // namespace pecan::runtime
