// Residual composition: out = [ReLU]( main(x) + shortcut(x) ).
//
// ResNet20/32 for CIFAR use He et al.'s parameter-free "option A" shortcut
// (strided subsample + zero channel padding) — this matches the paper's
// baseline op counts exactly (40.55M / 68.86M MACs), which a 1x1-conv
// shortcut would not.
#pragma once

#include <memory>

#include "nn/module.hpp"

namespace pecan::nn {

/// Identity passthrough (usable as a residual shortcut).
class Identity : public Module {
 public:
  explicit Identity(std::string name = "identity") : name_(std::move(name)) {}
  Tensor forward(const Tensor& input) override { return input; }
  Tensor backward(const Tensor& grad_output) override { return grad_output; }
  Tensor infer(const Tensor& input, InferContext&) const override { return input; }
  std::string name() const override { return name_; }

 private:
  std::string name_;
};

/// Option-A downsampling shortcut: spatial stride-s subsample, then zero-pad
/// channels from cin to cout. Parameter- and arithmetic-free.
class OptionAShortcut : public Module {
 public:
  OptionAShortcut(std::string name, std::int64_t cin, std::int64_t cout, std::int64_t stride);
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, InferContext& ctx) const override;
  std::string name() const override { return name_; }
  std::int64_t cin() const { return cin_; }
  std::int64_t cout() const { return cout_; }
  std::int64_t stride() const { return stride_; }

 private:
  std::string name_;
  std::int64_t cin_, cout_, stride_;
  Shape input_shape_;
};

/// out = main(x) + shortcut(x), optionally followed by ReLU (ResNet style).
class Residual : public Module {
 public:
  Residual(std::string name, std::unique_ptr<Module> main, std::unique_ptr<Module> shortcut,
           bool relu_after);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input, InferContext& ctx) const override;
  std::vector<Parameter*> parameters() override;
  std::vector<std::pair<std::string, Tensor*>> buffers() override {
    auto all = main_->buffers();
    for (auto& buffer : shortcut_->buffers()) all.push_back(std::move(buffer));
    return all;
  }
  std::string name() const override { return name_; }
  void set_training(bool training) override;
  void set_epoch_progress(double progress) override;
  ops::OpCount inference_ops() const override;

  Module& main() { return *main_; }
  Module& shortcut() { return *shortcut_; }
  bool relu_after() const { return relu_after_; }

  /// The block's output from its two branch outputs: the sum, then the
  /// ReLU when relu_after().
  Tensor join(Tensor main_out, const Tensor& short_out) const;

 private:
  std::string name_;
  std::unique_ptr<Module> main_;
  std::unique_ptr<Module> shortcut_;
  bool relu_after_;
  Tensor output_;  ///< training output (relu_after only): positive where the ReLU passed
};

}  // namespace pecan::nn
