#include "tensor/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/crc32.hpp"

namespace pecan {

namespace {
constexpr char kMagic[4] = {'P', 'C', 'A', 'N'};
constexpr std::uint32_t kVersion = 2;
/// Integrity-trailer tag: the bytes "2CRC" read as a little-endian u32.
constexpr std::uint32_t kCrcTag = 0x43524332u;

// Structural bounds: far above anything legitimate, low enough that a
// corrupted length field fails fast instead of attempting a huge allocation
// (or overflowing the int64 element-count product).
constexpr std::uint32_t kMaxStringLen = 1u << 20;
constexpr std::uint32_t kMaxNdim = 16;
constexpr std::int64_t kMaxNumel = std::int64_t{1} << 33;  // 32 GiB of f32

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& in, const std::string& path, const char* field) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("load_tensors: " + path + ": truncated at " + field);
  return value;
}

void write_string(std::ofstream& out, const std::string& s) {
  write_pod(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::ifstream& in, const std::string& path, const char* field) {
  const auto len = read_pod<std::uint32_t>(in, path, field);
  if (len > kMaxStringLen) {
    throw std::runtime_error("load_tensors: " + path + ": implausible string length " +
                             std::to_string(len) + " at " + field + " (corrupt file?)");
  }
  std::string s(len, '\0');
  in.read(s.data(), len);
  if (!in) throw std::runtime_error("load_tensors: " + path + ": truncated at " + field);
  return s;
}

/// CRC-32 of the first `limit` bytes of `path` (whole file when limit < 0),
/// streamed in chunks so large artifacts never sit in memory twice.
std::uint32_t crc32_of_file(const std::string& path, std::streamoff limit, const char* who) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string(who) + ": cannot reopen " + path + " for checksum");
  }
  std::uint32_t crc = 0;
  std::streamoff remaining = limit;
  char buf[1 << 16];
  while (limit < 0 || remaining > 0) {
    const auto want = limit < 0 ? static_cast<std::streamsize>(sizeof buf)
                                : static_cast<std::streamsize>(
                                      std::min<std::streamoff>(remaining, sizeof buf));
    in.read(buf, want);
    const std::streamsize got = in.gcount();
    if (got > 0) {
      crc = util::crc32_update(crc, buf, static_cast<std::size_t>(got));
      remaining -= got;
    }
    if (!in) break;
  }
  if (limit >= 0 && remaining != 0) {
    throw std::runtime_error(std::string(who) + ": " + path + ": short read during checksum");
  }
  return crc;
}
}  // namespace

void save_tensors(const std::string& path, const TensorMap& tensors) {
  save_tensors(path, tensors, MetaMap{});
}

void save_tensors(const std::string& path, const TensorMap& tensors, const MetaMap& meta) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_tensors: cannot open " + path);
  out.write(kMagic, sizeof kMagic);
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint32_t>(meta.size()));
  for (const auto& [key, value] : meta) {
    write_string(out, key);
    write_string(out, value);
  }
  write_pod(out, static_cast<std::uint64_t>(tensors.size()));
  for (const auto& [name, tensor] : tensors) {
    write_string(out, name);
    write_pod(out, static_cast<std::uint32_t>(tensor.ndim()));
    for (std::int64_t d : tensor.shape()) write_pod(out, d);
    write_pod(out, static_cast<std::uint64_t>(tensor.numel()));
    out.write(reinterpret_cast<const char*>(tensor.data()),
              static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  }
  if (!out) throw std::runtime_error("save_tensors: write failed for " + path);
  out.close();
  // Integrity trailer: tag + CRC-32 of everything written above. Computed by
  // re-reading the closed file so the checksum covers the bytes that actually
  // reached the filesystem, not just the ones we intended to write.
  const std::uint32_t crc = crc32_of_file(path, -1, "save_tensors");
  std::ofstream trailer(path, std::ios::binary | std::ios::app);
  if (!trailer) throw std::runtime_error("save_tensors: cannot append checksum to " + path);
  write_pod(trailer, kCrcTag);
  write_pod(trailer, crc);
  if (!trailer) throw std::runtime_error("save_tensors: checksum write failed for " + path);
}

TensorMap load_tensors(const std::string& path) { return load_tensor_file(path).tensors; }

TensorFile load_tensor_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_tensors: cannot open " + path);
  char magic[4];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("load_tensors: " + path +
                             ": bad magic (not a PECAN tensor file)");
  }
  const auto version = read_pod<std::uint32_t>(in, path, "version");
  if (version != kVersion) {
    throw std::runtime_error("load_tensors: " + path + ": unsupported format version " +
                             std::to_string(version) + " (this build reads version " +
                             std::to_string(kVersion) + ")");
  }

  TensorFile file;
  const auto meta_count = read_pod<std::uint32_t>(in, path, "meta count");
  for (std::uint32_t i = 0; i < meta_count; ++i) {
    std::string key = read_string(in, path, "meta key");
    std::string value = read_string(in, path, "meta value");
    if (!file.meta.emplace(key, std::move(value)).second) {
      throw std::runtime_error("load_tensors: " + path + ": repeated metadata key '" + key +
                               "'");
    }
  }

  const auto count = read_pod<std::uint64_t>(in, path, "tensor count");
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = read_string(in, path, "tensor name");
    const auto ndim = read_pod<std::uint32_t>(in, path, "ndim");
    if (ndim > kMaxNdim) {
      throw std::runtime_error("load_tensors: " + path + ": tensor '" + name +
                               "' has implausible ndim " + std::to_string(ndim));
    }
    Shape shape(ndim);
    std::int64_t implied_numel = 1;
    for (auto& d : shape) {
      d = read_pod<std::int64_t>(in, path, "dim");
      if (d < 0) {
        throw std::runtime_error("load_tensors: " + path + ": tensor '" + name +
                                 "' has negative dimension " + std::to_string(d));
      }
      // Overflow-safe running product: reject before shape_numel/Tensor can
      // overflow int64 or attempt an absurd allocation.
      if (d > 0 && implied_numel > kMaxNumel / d) {
        throw std::runtime_error("load_tensors: " + path + ": tensor '" + name +
                                 "' has implausible shape " + shape_str(shape) +
                                 " (corrupt file?)");
      }
      implied_numel *= d;
    }
    const auto numel = read_pod<std::uint64_t>(in, path, "numel");
    const bool consistent =
        ndim == 0 ? numel <= 1 : numel == static_cast<std::uint64_t>(shape_numel(shape));
    if (!consistent) {
      throw std::runtime_error("load_tensors: " + path + ": tensor '" + name + "' numel " +
                               std::to_string(numel) + " does not match shape " +
                               shape_str(shape));
    }
    // ndim == 0 with numel == 0 is the default-constructed empty tensor;
    // Tensor(Shape{}) would instead be a 1-element scalar.
    Tensor tensor = (ndim == 0 && numel == 0) ? Tensor() : Tensor(shape);
    if (tensor.numel() > 0) {
      in.read(reinterpret_cast<char*>(tensor.data()),
              static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
      if (!in) {
        throw std::runtime_error("load_tensors: " + path + ": truncated data for '" + name + "'");
      }
    }
    if (!file.tensors.emplace(name, std::move(tensor)).second) {
      throw std::runtime_error("load_tensors: " + path + ": repeated tensor name '" + name +
                               "'");
    }
  }

  // Integrity trailer: the writer always appends it, so a file without one
  // was cut short or overwritten, and is as corrupt as one whose checksum
  // disagrees.
  const std::streamoff body_end = in.tellg();
  std::uint32_t tag = 0;
  std::uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&tag), sizeof tag);
  if (!in || tag != kCrcTag) {
    throw ArtifactCorruptError("load_tensors: " + path +
                               ": integrity trailer missing (corrupt file)");
  }
  in.read(reinterpret_cast<char*>(&stored), sizeof stored);
  if (!in) {
    throw ArtifactCorruptError("load_tensors: " + path +
                               ": integrity trailer truncated (corrupt file)");
  }
  const std::uint32_t computed = crc32_of_file(path, body_end, "load_tensors");
  if (computed != stored) {
    throw ArtifactCorruptError("load_tensors: " + path + ": CRC-32 mismatch (stored " +
                               std::to_string(stored) + ", computed " +
                               std::to_string(computed) + ") — file is corrupt");
  }
  return file;
}

}  // namespace pecan
