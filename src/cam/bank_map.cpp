#include "cam/bank_map.hpp"

#include <stdexcept>

namespace pecan::cam {

BankMap::BankMap(CamNetworkExport& network, std::int64_t banks) : network_(&network) {
  if (banks < 1) throw std::invalid_argument("BankMap: banks must be >= 1");
  const std::size_t nbanks = static_cast<std::size_t>(banks);
  ports_.reserve(nbanks);
  for (std::size_t b = 0; b < nbanks; ++b) ports_.push_back(std::make_unique<OpCounter>());
  bank_words_.assign(nbanks, 0);
  bank_arrays_.assign(nbanks, 0);

  // Deterministic placement: arrays visited in network order (cam_layers is
  // built in network order by convert_to_cam, groups ascend within a
  // layer), array k landing on bank k mod banks.
  std::int64_t ordinal = 0;
  for (std::size_t li = 0; li < network.cam_layers.size(); ++li) {
    CamConv2d* layer = network.cam_layers[li];
    for (std::int64_t j = 0; j < layer->groups(); ++j, ++ordinal) {
      const std::int64_t words = layer->array(j).word_count();
      const std::int64_t bank = ordinal % banks;
      bank_words_[static_cast<std::size_t>(bank)] += words;
      ++bank_arrays_[static_cast<std::size_t>(bank)];
      assignments_.push_back({bank, static_cast<std::int64_t>(li), j, words});
      layer->array(j).set_bank_port(ports_[static_cast<std::size_t>(bank)].get());
    }
  }
}

BankMap::~BankMap() {
  // Detach before the ports die; the export usually outlives the map by a
  // destructor line or two (runtime::Engine declares the export first).
  for (const BankAssignment& a : assignments_) {
    network_->cam_layers[static_cast<std::size_t>(a.layer)]->array(a.group).set_bank_port(nullptr);
  }
}

std::vector<BankStats> BankMap::stats(const ops::EnergyModel& model) const {
  std::vector<BankStats> out(ports_.size());
  for (std::size_t b = 0; b < out.size(); ++b) {
    BankStats& s = out[b];
    s.arrays = bank_arrays_[b];
    s.words = bank_words_[b];
    const ops::OpTotals t = ports_[b]->totals();
    s.searches = t.cam_searches;
    s.energy_pj = model.energy(t).total_pj();
  }
  return out;
}

void BankMap::reset() {
  for (const auto& port : ports_) port->reset();
}

}  // namespace pecan::cam
