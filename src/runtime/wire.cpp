#include "runtime/wire.hpp"

#include <cstdio>
#include <limits>
#include <stdexcept>

namespace pecan::runtime::wire {

namespace {

// Little-endian field access via memcpy: the static_assert in the header
// pins the host byte order, so these compile to plain loads/stores.
template <typename T>
T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void append(std::vector<std::uint8_t>& out, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

/// Validates a tensor payload's ndim and dims fields into `shape` and returns
/// the byte size of the whole tensor body (ndim + dims + float data). The one
/// parser behind both tensor decoders.
std::size_t read_tensor_head(const std::uint8_t* payload, std::size_t len, Shape& shape) {
  if (len < 4) throw std::invalid_argument("wire::decode_tensor: payload shorter than ndim field");
  const std::uint32_t ndim = load<std::uint32_t>(payload);
  if (ndim == 0 || ndim > kMaxTensorDims) {
    throw std::invalid_argument("wire::decode_tensor: ndim " + std::to_string(ndim) +
                                " outside [1, " + std::to_string(kMaxTensorDims) + "]");
  }
  const std::size_t dims_bytes = sizeof(std::int64_t) * ndim;
  if (len < 4 + dims_bytes) {
    throw std::invalid_argument("wire::decode_tensor: payload truncated in dims");
  }
  shape.assign(ndim, 0);
  std::int64_t numel = 1;
  for (std::uint32_t i = 0; i < ndim; ++i) {
    const std::int64_t d = load<std::int64_t>(payload + 4 + sizeof(std::int64_t) * i);
    if (d < 0 || d > std::numeric_limits<std::int32_t>::max()) {
      throw std::invalid_argument("wire::decode_tensor: bad dim " + std::to_string(d));
    }
    shape[i] = d;
    numel *= d;
    if (numel > std::numeric_limits<std::int32_t>::max()) {
      throw std::invalid_argument("wire::decode_tensor: element count overflow");
    }
  }
  return 4 + dims_bytes + sizeof(float) * static_cast<std::size_t>(numel);
}

/// Copies the float data of a `len`-byte payload whose head read_tensor_head
/// parsed; `len` must be exactly the body size.
Tensor read_tensor_body(const std::uint8_t* payload, std::size_t len, std::size_t body,
                        Shape shape) {
  if (len != body) {
    throw std::invalid_argument("wire::decode_tensor: payload is " + std::to_string(len) +
                                " bytes, shape " + shape_str(shape) + " needs " +
                                std::to_string(body));
  }
  // The one socket-buffer→tensor copy: floats land directly in the layout
  // Engine::submit / forward_batch consume.
  Tensor t(std::move(shape));
  const std::size_t data_bytes = sizeof(float) * static_cast<std::size_t>(t.numel());
  std::memcpy(t.data(), payload + body - data_bytes, data_bytes);
  return t;
}

}  // namespace

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::Ping: return "PING";
    case Opcode::Infer: return "INFER";
    case Opcode::InferBatch: return "INFER_BATCH";
    case Opcode::Stats: return "STATS";
    case Opcode::ListModels: return "LIST_MODELS";
    case Opcode::Deploy: return "DEPLOY";
  }
  return "UNKNOWN";
}

const char* status_name(Status status) {
  switch (status) {
    case Status::Ok: return "OK";
    case Status::Overloaded: return "OVERLOADED";
    case Status::EngineStopped: return "ENGINE_STOPPED";
    case Status::UnknownModel: return "UNKNOWN_MODEL";
    case Status::BadRequest: return "BAD_REQUEST";
    case Status::BadFrame: return "BAD_FRAME";
    case Status::InternalError: return "INTERNAL_ERROR";
    case Status::DeadlineExceeded: return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

void encode_frame(std::vector<std::uint8_t>& out, Opcode op, Status status,
                  std::uint64_t request_id, std::string_view model, const void* payload,
                  std::size_t payload_len) {
  if (model.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument("wire::encode_frame: model name too long (" +
                                std::to_string(model.size()) + " bytes)");
  }
  if (payload_len > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("wire::encode_frame: payload too large (" +
                                std::to_string(payload_len) + " bytes)");
  }
  out.reserve(out.size() + kHeaderBytes + model.size() + payload_len);
  append<std::uint32_t>(out, kMagic);
  append<std::uint16_t>(out, kVersion);
  append<std::uint16_t>(out, static_cast<std::uint16_t>(op));
  append<std::uint64_t>(out, request_id);
  append<std::uint16_t>(out, static_cast<std::uint16_t>(model.size()));
  append<std::uint16_t>(out, static_cast<std::uint16_t>(status));
  append<std::uint32_t>(out, static_cast<std::uint32_t>(payload_len));
  const auto* name = reinterpret_cast<const std::uint8_t*>(model.data());
  out.insert(out.end(), name, name + model.size());
  const auto* body = static_cast<const std::uint8_t*>(payload);
  if (payload_len > 0) out.insert(out.end(), body, body + payload_len);
}

std::size_t tensor_payload_bytes(const Tensor& t) {
  return 4 + sizeof(std::int64_t) * static_cast<std::size_t>(t.ndim()) +
         sizeof(float) * static_cast<std::size_t>(t.numel());
}

void encode_tensor_frame(std::vector<std::uint8_t>& out, Opcode op, Status status,
                         std::uint64_t request_id, std::string_view model, const Tensor& t,
                         std::uint8_t priority, std::uint32_t deadline_ms) {
  if (static_cast<std::size_t>(t.ndim()) > kMaxTensorDims) {
    throw std::invalid_argument("wire::encode_tensor_frame: tensor has " +
                                std::to_string(t.ndim()) + " dims, max " +
                                std::to_string(kMaxTensorDims));
  }
  // Priority 0 with no deadline omits the tail entirely: the default class
  // stays byte-identical to the pre-priority wire format. A deadline needs
  // the 5-byte tail (the priority byte positions the u32).
  const std::size_t tail = deadline_ms != 0 ? 5 : (priority != 0 ? 1 : 0);
  const std::size_t payload_len = tensor_payload_bytes(t) + tail;
  // Header first (with the final payload length), then the tensor fields
  // straight into the frame buffer.
  encode_frame(out, op, status, request_id, model, nullptr, 0);
  // Patch payload_len (offset 20 of the just-written header).
  const std::size_t header_at = out.size() - kHeaderBytes - model.size();
  const auto len32 = static_cast<std::uint32_t>(payload_len);
  std::memcpy(out.data() + header_at + 20, &len32, sizeof(len32));
  out.reserve(out.size() + payload_len);
  append<std::uint32_t>(out, static_cast<std::uint32_t>(t.ndim()));
  for (std::int64_t i = 0; i < t.ndim(); ++i) append<std::int64_t>(out, t.dim(i));
  const auto* data = reinterpret_cast<const std::uint8_t*>(t.data());
  out.insert(out.end(), data, data + sizeof(float) * static_cast<std::size_t>(t.numel()));
  if (deadline_ms != 0) {
    out.push_back(priority);
    append<std::uint32_t>(out, deadline_ms);
  } else if (priority != 0) {
    out.push_back(priority);
  }
}

Tensor decode_tensor(const std::uint8_t* payload, std::size_t len) {
  Shape shape;
  const std::size_t body = read_tensor_head(payload, len, shape);
  return read_tensor_body(payload, len, body, std::move(shape));
}

Tensor decode_tensor_request(const std::uint8_t* payload, std::size_t len,
                             std::uint8_t& priority, std::uint32_t& deadline_ms) {
  priority = 0;
  deadline_ms = 0;
  // The body's own ndim/dims fields size it, so the legal trailing tails are
  // unambiguous: exactly the body → class 0, no deadline (every
  // pre-priority frame); body + 1 → that byte is the class; body + 5 →
  // class byte then u32 deadline_ms. Any other length fails like
  // decode_tensor does on trailing junk.
  Shape shape;
  const std::size_t body = read_tensor_head(payload, len, shape);
  if (len == body + 1) {
    priority = payload[body];
    len = body;
  } else if (len == body + 5) {
    priority = payload[body];
    deadline_ms = load<std::uint32_t>(payload + body + 1);
    len = body;
  }
  return read_tensor_body(payload, len, body, std::move(shape));
}

void Decoder::feed(const void* data, std::size_t n) {
  // Consume the frame handed out by the last next() before appending, then
  // compact once the dead prefix outgrows the live bytes — amortized O(1)
  // per byte, and FrameViews never dangle past the documented lifetime.
  pos_ = frame_end_;
  if (pos_ > 0 && pos_ >= buf_.size() - pos_) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  frame_end_ = pos_;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + n);
}

Decoder::Result Decoder::next(FrameView& out) {
  if (poisoned_) return Result::Error;
  pos_ = frame_end_;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) return Result::NeedMore;
  const std::uint8_t* h = buf_.data() + pos_;

  const std::uint32_t magic = load<std::uint32_t>(h);
  if (magic != kMagic) {
    poisoned_ = true;
    char hex[9];
    std::snprintf(hex, sizeof hex, "%08x", static_cast<unsigned>(magic));
    error_ = std::string("bad magic 0x") + hex + " (not a PECAN wire stream)";
    error_request_id_ = 0;  // nothing downstream of a bad magic is trustworthy
    return Result::Error;
  }
  const std::uint16_t version = load<std::uint16_t>(h + 4);
  const std::uint64_t request_id = load<std::uint64_t>(h + 8);
  const std::uint16_t name_len = load<std::uint16_t>(h + 16);
  const std::uint32_t payload_len = load<std::uint32_t>(h + 20);
  if (version != kVersion) {
    poisoned_ = true;
    error_ = "unsupported wire version " + std::to_string(version) + " (expected " +
             std::to_string(kVersion) + ")";
    error_request_id_ = request_id;
    return Result::Error;
  }
  const std::size_t total = kHeaderBytes + name_len + payload_len;
  if (total > max_frame_bytes_) {
    poisoned_ = true;
    error_ = "frame of " + std::to_string(total) + " bytes exceeds the " +
             std::to_string(max_frame_bytes_) + "-byte limit";
    error_request_id_ = request_id;
    return Result::Error;
  }
  if (avail < total) return Result::NeedMore;

  out.version = version;
  out.opcode = static_cast<Opcode>(load<std::uint16_t>(h + 6));
  out.request_id = request_id;
  out.status = static_cast<Status>(load<std::uint16_t>(h + 18));
  out.model = {reinterpret_cast<const char*>(h + kHeaderBytes), name_len};
  out.payload = h + kHeaderBytes + name_len;
  out.payload_len = payload_len;
  frame_end_ = pos_ + total;
  return Result::Frame;
}

}  // namespace pecan::runtime::wire
