// Wire protocol of runtime::NetServer — a versioned, length-prefixed binary
// framing over TCP.
//
// Every message (request or response, both directions) is one frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic        0x4E414350 ("PCAN" as little-endian bytes)
//        4     2  version      kVersion (1)
//        6     2  opcode       Opcode (Ping/Infer/InferBatch/Stats/...)
//        8     8  request_id   caller-chosen; echoed verbatim in the reply
//       16     2  name_len     model-name byte count (M)
//       18     2  status       Status (0 in requests; result code in replies)
//       20     4  payload_len  payload byte count (P)
//       24     M  model name   UTF-8, not NUL-terminated
//     24+M     P  payload      opcode-specific (see below)
//
// The fixed 24-byte header carries both lengths, so a decoder knows the full
// frame size after 24 bytes — the "length prefix" that makes torn TCP reads
// reassemblable. All integers are little-endian; float payloads are IEEE-754
// binary32 (static_assert'ed below — every deployment target is LE).
//
// Payloads:
//   Infer        request: tensor ([C,H,W] sample)   reply: tensor ([classes])
//   InferBatch   request: tensor ([N,C,H,W] batch)  reply: tensor ([N,classes])
//     Infer/InferBatch requests may carry an optional trailing tail after
//     the tensor payload, self-sized by the payload length:
//       tensor               priority 0, no deadline (every pre-priority frame)
//       tensor + 1 byte      u8 priority class (0 = default/lowest): the
//                            class of NetServer's executor queue (4 classes;
//                            bytes above 3 clamp to 3)
//       tensor + 5 bytes     u8 priority class, then u32 deadline_ms — a
//                            RELATIVE millisecond budget measured from frame
//                            receipt (0 never appears on the wire; 0 in the
//                            API means "no deadline")
//     A priority-0, no-deadline request emits the bare tensor, so default
//     traffic is byte-identical to old clients in both directions. Replies
//     never carry the tail.
//   Ping         empty both ways (reply echoes request_id — liveness probe)
//   Stats        request: empty                     reply: compact JSON text
//   ListModels   request: empty                     reply: newline-joined names
//   Deploy       request: artifact path text        reply: decimal generation
//   Error replies (status != Ok): payload is a human-readable message.
//
// Tensor payload encoding: u32 ndim, i64 dims[ndim], f32 data[numel] — the
// sample layout runtime::Engine consumes directly, so the server decodes a
// request straight from the connection buffer into the engine-ready Tensor
// (one unavoidable socket-buffer→tensor copy, no intermediate frame object;
// with the fused im2col_tile path no contiguous batch tensor ever exists
// server-side beyond the request's own samples).
//
// Status codes distinguish the three client-actionable failure families the
// serving stack already throws as distinct types: Overloaded ("try again
// later", admission-control shed), EngineStopped / UnknownModel ("this
// target is gone"), and BadRequest/BadFrame ("your message is malformed").
// BadFrame is special: the stream is unparseable past this point (bad magic,
// wrong version, oversized length), so the server replies once with BadFrame
// and then closes the connection; every other status leaves it open.
//
// Decoder torn-frame contract: feed() any byte slicing whatsoever — one byte
// at a time, frames split mid-header, many frames per read — and next()
// yields exactly the encoded frame sequence. Malformed input (bad magic,
// unsupported version, a length that exceeds max_frame_bytes) poisons the
// decoder: next() returns Error with a message, and error_request_id() gives
// the request id when the header was intact enough to trust (version/length
// errors) or 0 when it was not (magic errors).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"

namespace pecan::runtime::wire {

static_assert(std::endian::native == std::endian::little,
              "wire format assumes a little-endian host");

inline constexpr std::uint32_t kMagic = 0x4E414350u;  // "PCAN"
inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
/// Default frame-size ceiling (header + name + payload). Generous for any
/// [N,C,H,W] batch the engines serve; a 4 GB length field from a confused or
/// hostile peer must never translate into an allocation.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{64} << 20;
inline constexpr std::size_t kMaxTensorDims = 8;

enum class Opcode : std::uint16_t {
  Ping = 0,
  Infer = 1,
  InferBatch = 2,
  Stats = 3,
  ListModels = 4,
  Deploy = 5,
};

enum class Status : std::uint16_t {
  Ok = 0,
  Overloaded = 1,     ///< admission-control shed — retry later
  EngineStopped = 2,  ///< engine shut down mid-request
  UnknownModel = 3,   ///< no such model deployed
  BadRequest = 4,     ///< well-framed but semantically invalid (shape, payload)
  BadFrame = 5,       ///< unparseable stream — replied once, then connection closes
  InternalError = 6,  ///< unexpected server-side failure
  DeadlineExceeded = 7,  ///< the request's deadline lapsed before a result was ready
};

const char* opcode_name(Opcode op);
const char* status_name(Status status);

/// One decoded frame. Views point into the Decoder's buffer and stay valid
/// only until the next feed()/next() call — consume or copy immediately.
struct FrameView {
  std::uint16_t version = 0;
  Opcode opcode = Opcode::Ping;
  Status status = Status::Ok;
  std::uint64_t request_id = 0;
  std::string_view model;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_len = 0;

  std::string_view payload_text() const {
    return {reinterpret_cast<const char*>(payload), payload_len};
  }
};

// --- Encoding ---------------------------------------------------------------

/// Appends one complete frame to `out`.
void encode_frame(std::vector<std::uint8_t>& out, Opcode op, Status status,
                  std::uint64_t request_id, std::string_view model, const void* payload,
                  std::size_t payload_len);

inline void encode_frame(std::vector<std::uint8_t>& out, Opcode op, Status status,
                         std::uint64_t request_id, std::string_view model,
                         std::string_view payload = {}) {
  encode_frame(out, op, status, request_id, model, payload.data(), payload.size());
}

/// Appends a frame whose payload is the wire encoding of `t`, written
/// directly into `out` (no intermediate payload buffer). A nonzero
/// `deadline_ms` appends the 5-byte priority+deadline tail; otherwise a
/// nonzero `priority` appends the 1-byte priority tail (Infer/InferBatch
/// requests only). Priority 0 with no deadline emits the tail-free v1
/// frame, so default-class traffic is byte-identical to old clients.
/// `deadline_ms` is relative: the receiver anchors it at frame receipt.
void encode_tensor_frame(std::vector<std::uint8_t>& out, Opcode op, Status status,
                         std::uint64_t request_id, std::string_view model, const Tensor& t,
                         std::uint8_t priority = 0, std::uint32_t deadline_ms = 0);

std::size_t tensor_payload_bytes(const Tensor& t);

/// Decodes a tensor payload (u32 ndim, i64 dims, f32 data). Throws
/// std::invalid_argument on any inconsistency: truncated buffer, ndim >
/// kMaxTensorDims, negative dims, or a dims/byte-count mismatch.
Tensor decode_tensor(const std::uint8_t* payload, std::size_t len);

/// Decodes an Infer/InferBatch REQUEST payload: the tensor plus the optional
/// trailing tail. `priority` is set to the tail byte when present and 0 when
/// absent; `deadline_ms` to the tail's u32 when the 5-byte tail is present
/// and 0 (= no deadline) otherwise. Any other length mismatch throws
/// std::invalid_argument like decode_tensor.
Tensor decode_tensor_request(const std::uint8_t* payload, std::size_t len,
                             std::uint8_t& priority, std::uint32_t& deadline_ms);

// --- Decoding ---------------------------------------------------------------

class Decoder {
 public:
  explicit Decoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Result {
    NeedMore,  ///< no complete frame buffered yet
    Frame,     ///< `out` holds the next frame (views into the buffer)
    Error,     ///< stream poisoned — see error() / error_request_id()
  };

  /// Appends raw bytes from the connection. Invalidates prior FrameViews.
  void feed(const void* data, std::size_t n);

  /// Yields the next complete frame, if any. Returning Frame consumes the
  /// PREVIOUS frame; the new FrameView stays valid until the next feed() or
  /// next(). Once Error is returned the decoder stays poisoned.
  Result next(FrameView& out);

  const std::string& error() const { return error_; }
  std::uint64_t error_request_id() const { return error_request_id_; }
  /// Bytes buffered but not yet consumed (diagnostics).
  std::size_t buffered() const { return buf_.size() - pos_; }

  /// Drops all buffered bytes and clears any poison — for reuse on a FRESH
  /// connection (NetClient reconnect). Never call mid-stream.
  void reset() {
    buf_.clear();
    pos_ = frame_end_ = 0;
    poisoned_ = false;
    error_.clear();
    error_request_id_ = 0;
  }

 private:
  const std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;        ///< start of the frame being parsed
  std::size_t frame_end_ = 0;  ///< end of the last frame returned (== pos_ when none)
  bool poisoned_ = false;
  std::string error_;
  std::uint64_t error_request_id_ = 0;
};

}  // namespace pecan::runtime::wire
