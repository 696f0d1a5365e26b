// Binary serialization of named tensor collections (model checkpoints) with
// an optional string-metadata block (model artifacts).
//
// Format v2: magic "PCAN" | u32 version |
//   u32 meta_count | per entry: u32 key_len | key | u32 val_len | val |
//   u64 tensor_count | per entry:
//     u32 name_len | name bytes | u32 ndim | i64 dims[ndim] | u64 numel |
//     f32 data[numel].
// v1 files (no metadata block, no explicit numel) are still readable. The
// explicit numel makes zero-element and default-constructed tensors
// round-trip exactly (v1 conflated "no elements" with "0-d scalar").
//
// Integrity trailer: the writer appends u32 "2CRC" tag | u32 CRC-32 of every
// preceding byte. Loaders that reach end-of-stream without the trailer
// accept the file (v1 and early-v2 files have none — the v2 reader always
// stopped after tensor_count tensors, so the trailer is invisible to old
// builds); when the trailer IS present, a checksum mismatch throws the typed
// ArtifactCorruptError so callers (Server::deploy, the wire DEPLOY verb) can
// refuse the artifact without disturbing what is already deployed.
//
// Little-endian host assumed (x86-64 target). Loaders validate magic,
// version, and structural bounds and throw std::runtime_error with the
// offending path and field on any mismatch.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "tensor/tensor.hpp"

namespace pecan {

/// A tensor/artifact file whose integrity trailer failed verification: the
/// bytes parsed, but they are not the bytes that were written. Deploy paths
/// catch this type to reject the artifact while leaving the model table as-is.
struct ArtifactCorruptError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using TensorMap = std::map<std::string, Tensor>;
using MetaMap = std::map<std::string, std::string>;

/// A loaded checkpoint/artifact file: tensors plus free-form metadata
/// (empty for v1 files).
struct TensorFile {
  TensorMap tensors;
  MetaMap meta;
};

void save_tensors(const std::string& path, const TensorMap& tensors);
void save_tensors(const std::string& path, const TensorMap& tensors, const MetaMap& meta);

TensorMap load_tensors(const std::string& path);
TensorFile load_tensor_file(const std::string& path);

}  // namespace pecan
