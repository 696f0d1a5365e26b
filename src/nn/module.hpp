// Module: the layer/backprop engine.
//
// Reverse-mode differentiation is module-based rather than tape-based:
// each layer caches what it needs in forward() and implements backward()
// explicitly. This keeps the engine small, makes every gradient unit-
// testable against finite differences, and — crucially for PECAN-D — lets a
// layer install a *custom* surrogate gradient (straight-through estimator,
// epoch-aware tanh sign approximation) exactly where Eq. (5)/(6) of the
// paper prescribe it.
//
// Each layer computes its output in exactly one place:
//   * infer(input, ctx) — the stateless output path: const on the module,
//     with every per-call buffer drawn from the caller's InferContext
//     arena. Any number of in-flight infer() calls may share one network
//     (the runtime Engine keeps one context per concurrent worker);
//   * forward()/backward() — the stateful training path: forward computes
//     through infer() (or the same private kernel) and keeps only what
//     backward needs inside the module, so one module supports one
//     in-flight pass at a time. BatchNorm2d's batch statistics are the one
//     training output that is different math.
//
// Data layout convention: activations are NCHW ([N, C, H, W]) for conv
// stacks and [N, F] for fully-connected stacks.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/infer_context.hpp"
#include "ops/op_count.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace pecan::nn {

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  bool trainable = true;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.f); }
};

class Module {
 public:
  virtual ~Module() = default;

  /// The infer() output; caches context for backward() when training() is
  /// true, and latches the input geometry inference_ops() reads.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Given dL/d(output), accumulates parameter grads and returns dL/d(input).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Stateless inference, the layer's one output computation: const — all
  /// per-call scratch comes from `ctx`, so concurrent calls on one module
  /// are safe. Layers that can be served must override this; the default
  /// throws (training-only modules like losses never serve).
  virtual Tensor infer(const Tensor& input, InferContext& ctx) const;

  /// All trainable parameters (recursively for containers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Named persistent state that is NOT optimized but must survive a
  /// checkpoint round-trip (BatchNorm running statistics). Included in
  /// state_dict()/load_state_dict() alongside parameters.
  virtual std::vector<std::pair<std::string, Tensor*>> buffers() { return {}; }

  virtual std::string name() const = 0;

  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Epoch progress e/E in [0,1]; PECAN-D uses it for the Eq. (6) surrogate.
  virtual void set_epoch_progress(double /*progress*/) {}

  /// Analytic inference op counts for ONE sample (Tables 1-5, A2).
  /// Layers with no arithmetic (ReLU, pooling, flatten) report zero.
  virtual ops::OpCount inference_ops() const { return {}; }

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

  /// Parameter + buffer snapshot / restore for checkpointing (keys = names;
  /// containers prefix children so names are unique). load_state_dict
  /// requires every parameter and every buffer, at its own shape.
  TensorMap state_dict();
  void load_state_dict(const TensorMap& state);

 protected:
  bool training_ = true;
};

/// Sequential container; owns its children.
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  /// Appends a layer and returns a typed borrow for later inspection.
  template <typename M, typename... A>
  M* emplace(A&&... args) {
    auto layer = std::make_unique<M>(std::forward<A>(args)...);
    M* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }
  void append(std::unique_ptr<Module> layer) { layers_.push_back(std::move(layer)); }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, InferContext& ctx) const override;
  std::vector<Parameter*> parameters() override;
  std::vector<std::pair<std::string, Tensor*>> buffers() override;
  std::string name() const override { return name_.empty() ? "Sequential" : name_; }
  void set_training(bool training) override;
  void set_epoch_progress(double progress) override;
  ops::OpCount inference_ops() const override;

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_.at(i); }
  const Module& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace pecan::nn
