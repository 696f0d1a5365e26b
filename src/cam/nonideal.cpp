#include "cam/nonideal.hpp"

#include <cmath>
#include <stdexcept>

namespace pecan::cam {

namespace {

/// Signed levels of a `bits`-wide grid, (2^bits - 1); throws outside [2, 16].
std::int64_t intn_levels(int bits) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument("quantize_to_intn: bits must be in [2,16]");
  }
  return (std::int64_t{1} << bits) - 1;
}

/// Symmetric per-tensor fake quantization to (2^bits - 1) signed levels.
void fake_quantize(Tensor& values, std::int64_t levels, QuantizationReport& report) {
  float max_abs = 0.f;
  for (std::int64_t i = 0; i < values.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(values[i]));
  }
  if (max_abs == 0.f) {
    ++report.tensors;
    return;  // all-zero tensor quantizes exactly
  }
  const float half_levels = static_cast<float>(levels / 2);
  const float scale = max_abs / half_levels;
  double err_sum = 0;
  for (std::int64_t i = 0; i < values.numel(); ++i) {
    const float q = std::round(values[i] / scale) * scale;
    const double err = std::fabs(q - values[i]);
    report.max_abs_error = std::max(report.max_abs_error, err);
    err_sum += err;
    values[i] = q;
  }
  // report.mean_abs_error sums the per-tensor means until the caller divides
  // by report.tensors, so every tensor weighs the same whatever its size.
  report.mean_abs_error += err_sum / static_cast<double>(values.numel());
  ++report.tensors;
}

}  // namespace

QuantizationReport quantize_to_intn(CamConv2d& layer, int bits) {
  QuantizationReport report;
  report.levels = intn_levels(bits);
  for (std::int64_t j = 0; j < layer.groups(); ++j) {
    fake_quantize(layer.array(j).mutable_words(), report.levels, report);
    fake_quantize(layer.lut(j).table(), report.levels, report);
  }
  if (report.tensors > 0) report.mean_abs_error /= static_cast<double>(report.tensors);
  return report;
}

MatchlineNoiseReport apply_matchline_noise(CamNetworkExport& network, const BankMap& banks,
                                           const MatchlineNoiseConfig& config) {
  if (config.sigma < 0) {
    throw std::invalid_argument("apply_matchline_noise: sigma must be >= 0");
  }
  for (const CamConv2d* layer : network.cam_layers) {
    if (layer->effective_precision() != CamPrecision::Float32) {
      throw std::invalid_argument("apply_matchline_noise: " + layer->name() + " runs at " +
                                  precision_name(layer->effective_precision()) +
                                  "; match-line noise requires CamPrecision::Float32");
    }
  }
  // One independent stream per bank: variation is a property of the
  // physical bank the words landed on, so re-placing the same model onto a
  // different bank layout yields a different (but still deterministic)
  // device. splitmix-style odd-constant spread keeps nearby bank ids from
  // producing correlated xoshiro seeds.
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(banks.bank_count()));
  for (std::int64_t b = 0; b < banks.bank_count(); ++b) {
    streams.emplace_back(config.seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(b + 1));
  }

  MatchlineNoiseReport report;
  double abs_sum = 0;
  for (const BankAssignment& a : banks.assignments()) {
    CamArray& array = network.cam_layers[static_cast<std::size_t>(a.layer)]->array(a.group);
    const Tensor& words = array.words();
    const std::int64_t p = array.word_count();

    // Scale reference: the mean l1 norm of this array's stored words — the
    // "full discharge" of a typical match line in this subspace.
    double norm_sum = 0;
    for (std::int64_t i = 0; i < words.numel(); ++i) norm_sum += std::fabs(words[i]);
    const double mean_norm = p > 0 ? norm_sum / static_cast<double>(p) : 0.0;

    Rng& rng = streams[static_cast<std::size_t>(a.bank)];
    std::vector<float> offsets(static_cast<std::size_t>(p));
    for (std::int64_t m = 0; m < p; ++m) {
      const float off = static_cast<float>(config.sigma * mean_norm) * rng.normal();
      offsets[static_cast<std::size_t>(m)] = off;
      const double mag = std::fabs(static_cast<double>(off));
      abs_sum += mag;
      if (mag > report.max_abs_offset) report.max_abs_offset = mag;
    }
    array.set_matchline_noise(std::move(offsets));
    ++report.arrays;
    report.words += p;
  }
  if (report.words > 0) report.mean_abs_offset = abs_sum / static_cast<double>(report.words);
  return report;
}

void clear_matchline_noise(CamNetworkExport& network) {
  for (CamConv2d* layer : network.cam_layers) {
    for (std::int64_t j = 0; j < layer->groups(); ++j) layer->array(j).clear_matchline_noise();
  }
}

QuantizationReport quantize_to_intn(CamNetworkExport& network, int bits) {
  QuantizationReport total;
  total.levels = intn_levels(bits);
  double mean_acc = 0;
  for (CamConv2d* layer : network.cam_layers) {
    const QuantizationReport r = quantize_to_intn(*layer, bits);
    total.tensors += r.tensors;
    total.max_abs_error = std::max(total.max_abs_error, r.max_abs_error);
    mean_acc += r.mean_abs_error * static_cast<double>(r.tensors);
  }
  if (total.tensors > 0) total.mean_abs_error = mean_acc / static_cast<double>(total.tensors);
  return total;
}

}  // namespace pecan::cam
