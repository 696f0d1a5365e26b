// Binary serialization of named tensor collections (model checkpoints) with
// a string-metadata block (model artifacts).
//
// One format, version 2: magic "PCAN" | u32 version |
//   u32 meta_count | per entry: u32 key_len | key | u32 val_len | val |
//   u64 tensor_count | per entry:
//     u32 name_len | name bytes | u32 ndim | i64 dims[ndim] | u64 numel |
//     f32 data[numel] |
//   u32 "2CRC" tag | u32 CRC-32 of every preceding byte.
// The explicit numel makes zero-element and default-constructed tensors
// round-trip exactly.
//
// The writer always appends the integrity trailer, so a file that ends
// without it, or whose checksum disagrees, throws the typed
// ArtifactCorruptError: callers (Server::deploy, the wire DEPLOY verb)
// catch it to refuse the artifact without disturbing what is already
// deployed.
//
// Little-endian host assumed (x86-64 target). Loaders validate magic,
// version, structural bounds and name uniqueness (a repeated tensor name
// or metadata key is an error, never a silent first-wins), and throw
// std::runtime_error with the offending path and field on any mismatch.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "tensor/tensor.hpp"

namespace pecan {

/// A tensor/artifact file whose integrity trailer is missing or failed
/// verification: the bytes are not the bytes that were written. Deploy paths
/// catch this type to reject the artifact while leaving the model table as-is.
struct ArtifactCorruptError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using TensorMap = std::map<std::string, Tensor>;
using MetaMap = std::map<std::string, std::string>;

/// A loaded checkpoint/artifact file: tensors plus free-form metadata.
struct TensorFile {
  TensorMap tensors;
  MetaMap meta;
};

void save_tensors(const std::string& path, const TensorMap& tensors);
void save_tensors(const std::string& path, const TensorMap& tensors, const MetaMap& meta);

TensorMap load_tensors(const std::string& path);
TensorFile load_tensor_file(const std::string& path);

}  // namespace pecan
