// ModelArtifact — the persistence format of a trained PECAN/CAM network.
//
// An artifact is a serialize-v2 tensor file whose metadata block carries an
// architecture descriptor (format tag, model family, variant, class count,
// per-PECAN-layer PQ configs) and whose tensor block carries the full
// state_dict (weights, codebooks, biases, BatchNorm running stats). It
// stores only what build_network cannot derive: the input geometry follows
// from the family, and the CAM operating point is a deploy decision
// (EngineConfig::cam_precision), not a property of the trained weights.
// load_artifact + build_network reconstructs a bit-identical network
// without touching training code, and runtime::Engine compiles it for
// serving in either the float PQ path or the exported CAM+LUT path.
//
// The per-layer PQ configs are stored redundantly with the presets compiled
// into the model builders; build_network cross-checks them so an artifact
// trained against older presets fails loudly instead of silently rebuilding
// with different (p, d) and mis-shaping the codebooks. An artifact of an
// older format (a different "artifact.format" tag) is refused outright.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "models/variant.hpp"
#include "nn/module.hpp"
#include "tensor/serialize.hpp"

namespace pecan::runtime {

struct ModelArtifact {
  std::string model;  ///< model family, one build_network can rebuild
  models::Variant variant = models::Variant::Baseline;
  std::int64_t num_classes = 0;
  /// Sample geometry [C, H, W], derived from `model` by make_artifact and
  /// load_artifact; never stored in the file.
  std::int64_t in_channels = 0, in_height = 0, in_width = 0;
  MetaMap pq_configs;  ///< "pq.<layer>" -> "mode=..;p=..;d=..;tau=.."
  TensorMap weights;   ///< full state_dict of the trained network
};

/// Captures a trained network into an artifact. `model` must be one of the
/// families build_network knows how to rebuild (std::invalid_argument
/// otherwise); its input geometry lets the engine validate requests before
/// running them.
ModelArtifact make_artifact(const std::string& model, models::Variant variant,
                            std::int64_t num_classes, nn::Module& net);

void save_artifact(const std::string& path, const ModelArtifact& artifact);
ModelArtifact load_artifact(const std::string& path);

/// Rebuilds the described network and loads the artifact weights into it.
/// The network comes back in eval mode, ready for inference or CAM export.
/// Throws on unknown model families and on PQ-config drift (see above).
std::unique_ptr<nn::Sequential> build_network(const ModelArtifact& artifact);

}  // namespace pecan::runtime
