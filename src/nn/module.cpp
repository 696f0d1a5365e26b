#include "nn/module.hpp"

#include <stdexcept>

namespace pecan::nn {

Tensor Module::infer(const Tensor&, InferContext&) const {
  throw std::logic_error(name() + ": infer() not implemented (training-only module?)");
}

TensorMap Module::state_dict() {
  TensorMap state;
  for (Parameter* p : parameters()) {
    if (!state.emplace(p->name, p->value).second) {
      throw std::runtime_error("state_dict: duplicate parameter name '" + p->name + "'");
    }
  }
  for (auto& [name, tensor] : buffers()) {
    if (!state.emplace(name, *tensor).second) {
      throw std::runtime_error("state_dict: duplicate buffer name '" + name + "'");
    }
  }
  return state;
}

void Module::load_state_dict(const TensorMap& state) {
  for (Parameter* p : parameters()) {
    auto it = state.find(p->name);
    if (it == state.end()) {
      throw std::runtime_error("load_state_dict: missing parameter '" + p->name + "'");
    }
    if (!it->second.same_shape(p->value)) {
      throw std::runtime_error("load_state_dict: shape mismatch for '" + p->name + "': " +
                               shape_str(it->second.shape()) + " vs " + shape_str(p->value.shape()));
    }
    p->value = it->second;
  }
  for (auto& [name, tensor] : buffers()) {
    auto it = state.find(name);
    if (it == state.end()) {
      throw std::runtime_error("load_state_dict: missing buffer '" + name + "'");
    }
    if (!it->second.same_shape(*tensor)) {
      throw std::runtime_error("load_state_dict: shape mismatch for buffer '" + name + "': " +
                               shape_str(it->second.shape()) + " vs " + shape_str(tensor->shape()));
    }
    *tensor = it->second;
  }
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

Tensor Sequential::infer(const Tensor& input, InferContext& ctx) const {
  Tensor x = input;
  for (const auto& layer : layers_) x = layer->infer(x, ctx);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<std::pair<std::string, Tensor*>> Sequential::buffers() {
  std::vector<std::pair<std::string, Tensor*>> all;
  for (auto& layer : layers_) {
    for (auto& buffer : layer->buffers()) all.push_back(std::move(buffer));
  }
  return all;
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& layer : layers_) layer->set_training(training);
}

void Sequential::set_epoch_progress(double progress) {
  for (auto& layer : layers_) layer->set_epoch_progress(progress);
}

ops::OpCount Sequential::inference_ops() const {
  ops::OpCount total;
  for (const auto& layer : layers_) total += layer->inference_ops();
  return total;
}

}  // namespace pecan::nn
