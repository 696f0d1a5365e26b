#include "runtime/model_artifact.hpp"

#include <sstream>
#include <stdexcept>

#include "core/pecan_conv2d.hpp"
#include "core/pecan_linear.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "models/vgg_small.hpp"
#include "nn/residual.hpp"
#include "tensor/rng.hpp"
#include "util/fault_injector.hpp"

namespace pecan::runtime {

namespace {
constexpr const char* kFormatKey = "artifact.format";
constexpr const char* kFormatValue = "pecan.model_artifact.v1";

std::string encode_pq_config(const pq::PqLayerConfig& config) {
  std::ostringstream out;
  out << "mode=" << config.mode_name() << ";p=" << config.p << ";d=" << config.d
      << ";tau=" << config.temperature;
  return out.str();
}

/// Collects "pq.<layer>" -> encoded config for every PECAN layer in the
/// module tree (Sequential and Residual are the only containers).
void collect_pq_configs(nn::Module& module, MetaMap& out) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&module)) {
    for (std::size_t i = 0; i < seq->size(); ++i) collect_pq_configs(seq->layer(i), out);
    return;
  }
  if (auto* residual = dynamic_cast<nn::Residual*>(&module)) {
    collect_pq_configs(residual->main(), out);
    collect_pq_configs(residual->shortcut(), out);
    return;
  }
  if (auto* conv = dynamic_cast<pq::PecanConv2d*>(&module)) {
    out.emplace("pq." + conv->name(), encode_pq_config(conv->config()));
    return;
  }
  if (auto* fc = dynamic_cast<pq::PecanLinear*>(&module)) {
    out.emplace("pq." + fc->name(), encode_pq_config(fc->conv().config()));
    return;
  }
}

struct InputGeometry {
  std::int64_t c, h, w;
};

InputGeometry input_geometry(const std::string& model) {
  if (model == "lenet5") return {1, 28, 28};
  if (model == "vgg_small" || model == "resnet20" || model == "resnet32") return {3, 32, 32};
  throw std::invalid_argument("ModelArtifact: unknown model family '" + model +
                              "' (known: lenet5, vgg_small, resnet20, resnet32)");
}

std::string require_meta(const MetaMap& meta, const std::string& key, const std::string& path) {
  auto it = meta.find(key);
  if (it == meta.end()) {
    throw std::runtime_error("load_artifact: " + path + ": missing metadata key '" + key + "'");
  }
  return it->second;
}

std::int64_t parse_int(const std::string& value, const std::string& key, const std::string& path) {
  try {
    return std::stoll(value);
  } catch (const std::exception&) {
    throw std::runtime_error("load_artifact: " + path + ": metadata '" + key +
                             "' is not an integer: '" + value + "'");
  }
}
}  // namespace

ModelArtifact make_artifact(const std::string& model, models::Variant variant,
                            std::int64_t num_classes, nn::Module& net,
                            cam::CamPrecision cam_precision) {
  const InputGeometry geometry = input_geometry(model);
  ModelArtifact artifact;
  artifact.model = model;
  artifact.variant = variant;
  artifact.num_classes = num_classes;
  artifact.cam_precision = cam_precision;
  artifact.in_channels = geometry.c;
  artifact.in_height = geometry.h;
  artifact.in_width = geometry.w;
  collect_pq_configs(net, artifact.pq_configs);
  artifact.weights = net.state_dict();
  return artifact;
}

void save_artifact(const std::string& path, const ModelArtifact& artifact) {
  MetaMap meta = artifact.pq_configs;
  meta[kFormatKey] = kFormatValue;
  meta["model"] = artifact.model;
  meta["variant"] = models::variant_name(artifact.variant);
  meta["num_classes"] = std::to_string(artifact.num_classes);
  meta["input.channels"] = std::to_string(artifact.in_channels);
  meta["input.height"] = std::to_string(artifact.in_height);
  meta["input.width"] = std::to_string(artifact.in_width);
  meta["cam.precision"] = cam::precision_name(artifact.cam_precision);
  save_tensors(path, artifact.weights, meta);
}

ModelArtifact load_artifact(const std::string& path) {
  // Fault site: simulates an artifact whose integrity check failed, without
  // needing a damaged file on disk. Deploy paths must leave the model table
  // untouched either way.
  if (PECAN_FAULT_POINT("artifact.corrupt")) {
    throw ArtifactCorruptError("load_artifact: " + path +
                               ": fault injection (artifact.corrupt armed)");
  }
  TensorFile file = load_tensor_file(path);
  const std::string format = require_meta(file.meta, kFormatKey, path);
  if (format != kFormatValue) {
    throw std::runtime_error("load_artifact: " + path + ": unsupported artifact format '" +
                             format + "'");
  }
  ModelArtifact artifact;
  artifact.model = require_meta(file.meta, "model", path);
  artifact.variant = models::variant_from_name(require_meta(file.meta, "variant", path));
  artifact.num_classes = parse_int(require_meta(file.meta, "num_classes", path), "num_classes", path);
  artifact.in_channels =
      parse_int(require_meta(file.meta, "input.channels", path), "input.channels", path);
  artifact.in_height = parse_int(require_meta(file.meta, "input.height", path), "input.height", path);
  artifact.in_width = parse_int(require_meta(file.meta, "input.width", path), "input.width", path);
  // Optional: artifacts written before quantized exports existed read as
  // the float operating point.
  if (auto it = file.meta.find("cam.precision"); it != file.meta.end()) {
    artifact.cam_precision = cam::precision_from_name(it->second);
  }
  for (const auto& [key, value] : file.meta) {
    if (key.rfind("pq.", 0) == 0) artifact.pq_configs.emplace(key, value);
  }
  artifact.weights = std::move(file.tensors);
  return artifact;
}

std::unique_ptr<nn::Sequential> build_network(const ModelArtifact& artifact) {
  // The Rng only seeds initial weights, which load_state_dict overwrites.
  Rng rng(1);
  std::unique_ptr<nn::Sequential> net;
  if (artifact.model == "lenet5") {
    net = models::make_lenet5(artifact.variant, rng);
  } else if (artifact.model == "vgg_small") {
    net = models::make_vgg_small(artifact.variant, artifact.num_classes, rng);
  } else if (artifact.model == "resnet20") {
    net = models::make_resnet20(artifact.variant, artifact.num_classes, rng);
  } else if (artifact.model == "resnet32") {
    net = models::make_resnet32(artifact.variant, artifact.num_classes, rng);
  } else {
    throw std::invalid_argument("build_network: unknown model family '" + artifact.model + "'");
  }

  // Guard against preset drift: the rebuilt layers' PQ configs must match
  // the ones the artifact was trained with.
  MetaMap rebuilt;
  collect_pq_configs(*net, rebuilt);
  if (rebuilt != artifact.pq_configs) {
    for (const auto& [key, value] : artifact.pq_configs) {
      auto it = rebuilt.find(key);
      if (it == rebuilt.end()) {
        throw std::runtime_error("build_network: artifact has PQ config for '" + key +
                                 "' but the rebuilt model has no such PECAN layer");
      }
      if (it->second != value) {
        throw std::runtime_error("build_network: PQ config drift for '" + key + "': artifact " +
                                 value + " vs rebuilt " + it->second);
      }
    }
    throw std::runtime_error("build_network: rebuilt model has PECAN layers absent from artifact");
  }

  net->load_state_dict(artifact.weights);
  net->set_training(false);
  return net;
}

}  // namespace pecan::runtime
