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
constexpr const char* kFormatValue = "pecan.model_artifact.v2";

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

using Builder = std::unique_ptr<nn::Sequential> (*)(models::Variant, std::int64_t num_classes,
                                                    Rng&);

/// Every family build_network can rebuild, with the sample geometry [C, H, W]
/// its builder expects. Geometry lives here and nowhere else: artifacts
/// store only the family name.
struct Family {
  const char* name;
  std::int64_t channels, height, width;
  Builder build;
};

constexpr Family kFamilies[] = {
    {"lenet5", 1, 28, 28,
     [](models::Variant v, std::int64_t, Rng& rng) { return models::make_lenet5(v, rng); }},
    {"vgg_small", 3, 32, 32,
     [](models::Variant v, std::int64_t classes, Rng& rng) {
       return models::make_vgg_small(v, classes, rng);
     }},
    {"resnet20", 3, 32, 32,
     [](models::Variant v, std::int64_t classes, Rng& rng) {
       return models::make_resnet20(v, classes, rng);
     }},
    {"resnet32", 3, 32, 32,
     [](models::Variant v, std::int64_t classes, Rng& rng) {
       return models::make_resnet32(v, classes, rng);
     }},
};

const Family& find_family(const std::string& model) {
  for (const Family& family : kFamilies) {
    if (model == family.name) return family;
  }
  std::string known;
  for (const Family& family : kFamilies) {
    known += (known.empty() ? "" : ", ") + std::string(family.name);
  }
  throw std::invalid_argument("ModelArtifact: unknown model family '" + model + "' (known: " +
                              known + ")");
}

/// Fills the fields an artifact derives from its family instead of storing.
void set_geometry(ModelArtifact& artifact) {
  const Family& family = find_family(artifact.model);
  artifact.in_channels = family.channels;
  artifact.in_height = family.height;
  artifact.in_width = family.width;
}

std::string require_meta(const MetaMap& meta, const std::string& key, const std::string& path) {
  auto it = meta.find(key);
  if (it == meta.end()) {
    throw std::runtime_error("load_artifact: " + path + ": missing metadata key '" + key + "'");
  }
  return it->second;
}

std::int64_t parse_int(const std::string& value, const std::string& key, const std::string& path) {
  // The number must span the whole value: "10abc" is not 10.
  std::size_t used = 0;
  try {
    const std::int64_t parsed = std::stoll(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw std::runtime_error("load_artifact: " + path + ": metadata '" + key +
                           "' is not an integer: '" + value + "'");
}
}  // namespace

ModelArtifact make_artifact(const std::string& model, models::Variant variant,
                            std::int64_t num_classes, nn::Module& net) {
  ModelArtifact artifact;
  artifact.model = model;
  artifact.variant = variant;
  artifact.num_classes = num_classes;
  set_geometry(artifact);
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
  set_geometry(artifact);
  for (const auto& [key, value] : file.meta) {
    if (key.rfind("pq.", 0) == 0) artifact.pq_configs.emplace(key, value);
  }
  artifact.weights = std::move(file.tensors);
  return artifact;
}

std::unique_ptr<nn::Sequential> build_network(const ModelArtifact& artifact) {
  // The Rng only seeds initial weights, which load_state_dict overwrites.
  Rng rng(1);
  std::unique_ptr<nn::Sequential> net =
      find_family(artifact.model).build(artifact.variant, artifact.num_classes, rng);

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
