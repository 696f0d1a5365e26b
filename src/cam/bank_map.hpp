// cam::BankMap — placement of a CAM network's subspace arrays onto
// simulated multi-bank hardware, with live per-bank accounting.
//
// The paper's deployment story is CAM banks doing in-memory search: a real
// part has a fixed number of banks, and which subspace lands on which bank
// decides per-bank utilization and energy. BankMap models exactly that
// boundary: it walks a CamNetworkExport in network order and assigns each
// group's CamArray (all of its prototype words — a subspace is never split
// across banks, matching how a codebook maps onto one physical array) to
// one of `banks` simulated banks round-robin (array k -> bank k mod banks).
//
// Each bank owns an OpCounter "port". Every array is wired to its bank's
// port (CamArray::set_bank_port), and each flush of a lane's tally mirrors
// its exact amounts into it — the same relaxed-atomic amounts the network
// ledger receives, by construction (cam::count_into). stats() prices each
// bank's ledger through ops::EnergyModel, so per-bank searches and energy
// are live serving stats, and the per-bank energies sum to the network-wide
// total exactly.
//
// Placement is a pure deterministic function of (network, banks): same
// export + same bank count => same assignment, asserted by tests — required,
// because per-bank noise (cam/nonideal) seeds off the assignment.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cam/convert.hpp"
#include "cam/op_counter.hpp"
#include "ops/energy_model.hpp"
#include "util/stats_fields.hpp"

namespace pecan::cam {

/// One array's placement: which bank holds the prototype words of
/// cam_layers[layer]'s group `group`.
struct BankAssignment {
  std::int64_t bank = 0;
  std::int64_t layer = 0;  ///< index into CamNetworkExport::cam_layers
  std::int64_t group = 0;  ///< subspace j within that layer
  std::int64_t words = 0;  ///< prototypes stored
};

/// Live per-bank snapshot (EngineStats::banks / the STATS wire verb).
#define PECAN_BANK_STATS_FIELDS(X)       \
  X(std::int64_t, arrays, 0, "count")    \
  X(std::int64_t, words, 0, "count")     \
  X(std::uint64_t, searches, 0, "count") \
  X(double, energy_pj, 0.0, "pJ")
struct BankStats {
  PECAN_BANK_STATS_FIELDS(PECAN_STATS_MEMBER)
};

class BankMap {
 public:
  /// Places every array of `network` round-robin onto `banks` banks (>= 1)
  /// and wires it to its bank's port. The map must not outlive the export
  /// (it borrows the arrays); on destruction it detaches its ports.
  BankMap(CamNetworkExport& network, std::int64_t banks);
  ~BankMap();
  BankMap(const BankMap&) = delete;
  BankMap& operator=(const BankMap&) = delete;

  std::int64_t bank_count() const { return static_cast<std::int64_t>(ports_.size()); }
  const std::vector<BankAssignment>& assignments() const { return assignments_; }

  /// Snapshot: static placement facts + live search counts + exact energy
  /// of each bank's ledger under `model`.
  std::vector<BankStats> stats(const ops::EnergyModel& model) const;

  /// Zeroes the per-bank ledgers (compile-time warm-up is not traffic —
  /// same rule as the network OpCounter).
  void reset();

 private:
  CamNetworkExport* network_;
  std::vector<BankAssignment> assignments_;
  std::vector<std::unique_ptr<OpCounter>> ports_;  ///< one ledger per bank
  std::vector<std::int64_t> bank_words_;
  std::vector<std::int64_t> bank_arrays_;
};

}  // namespace pecan::cam
