// cam::BankMap — placement of a CAM network's subspace arrays onto
// simulated multi-bank hardware, with live per-bank accounting.
//
// The paper's deployment story is CAM banks doing in-memory search: a real
// part has a fixed number of banks of fixed word capacity, and which
// subspace lands on which bank decides per-bank utilization, energy, and —
// under device variation — accuracy. BankMap models exactly that boundary:
// it walks a CamNetworkExport in network order and assigns each group's
// CamArray (all of its prototype words — a subspace is never split across
// banks, matching how a codebook maps onto one physical array) to one of
// `banks` simulated banks, either round-robin or capacity-aware
// (least-loaded-first with a deterministic lowest-index tie-break).
//
// Each bank owns an OpCounter "port". Every array is wired to its bank's
// port (CamArray::set_bank_port), and each flush of a lane's tally mirrors
// its exact amounts into it — the same relaxed-atomic amounts the network
// ledger receives, by construction (cam::count_into). stats() prices each
// bank's ledger through ops::EnergyModel, so per-bank searches, occupancy,
// and energy are live serving stats, and the per-bank energies sum to the
// network-wide total exactly.
//
// Placement is a pure deterministic function of (network, config): same
// export + same config => same assignment, asserted by tests — required,
// because per-bank noise (cam/nonideal) seeds off the assignment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cam/convert.hpp"
#include "cam/op_counter.hpp"
#include "ops/energy_model.hpp"
#include "util/stats_fields.hpp"

namespace pecan::cam {

enum class BankPlacement {
  RoundRobin,    ///< array k -> bank k mod banks (capacity is report-only)
  CapacityAware  ///< least-loaded bank with room; lowest index breaks ties
};

const char* placement_name(BankPlacement p);

struct BankConfig {
  std::int64_t banks = 4;           ///< simulated bank count (>= 1)
  /// Words per bank. 0 = unbounded: RoundRobin reports occupancy relative
  /// to nothing (0.0) and CapacityAware degenerates to least-loaded.
  /// CapacityAware with a capacity the network cannot fit throws at
  /// placement time — a part that small cannot hold the model.
  std::int64_t capacity_words = 0;
  BankPlacement placement = BankPlacement::RoundRobin;
};

/// One array's placement: which bank holds the prototype words of
/// cam_layers[layer]'s group `group`.
struct BankAssignment {
  std::int64_t bank = 0;
  std::int64_t layer = 0;  ///< index into CamNetworkExport::cam_layers
  std::int64_t group = 0;  ///< subspace j within that layer
  std::int64_t words = 0;  ///< prototypes stored (occupancy contribution)
};

/// Live per-bank snapshot (EngineStats::banks / the STATS wire verb).
#define PECAN_BANK_STATS_FIELDS(X)            \
  X(std::int64_t, arrays, 0, "count")         \
  X(std::int64_t, words, 0, "count")          \
  X(std::int64_t, capacity_words, 0, "count") \
  X(double, occupancy, 0.0, "ratio")          \
  X(std::uint64_t, searches, 0, "count")      \
  X(double, energy_pj, 0.0, "pJ")
struct BankStats {
  PECAN_BANK_STATS_FIELDS(PECAN_STATS_MEMBER)
};

class BankMap {
 public:
  /// Places every array of `network` and wires it to its bank's port. The
  /// map must not outlive the export (it borrows the arrays); on
  /// destruction it detaches its ports.
  BankMap(CamNetworkExport& network, BankConfig config);
  ~BankMap();
  BankMap(const BankMap&) = delete;
  BankMap& operator=(const BankMap&) = delete;

  std::int64_t bank_count() const { return config_.banks; }
  const BankConfig& config() const { return config_; }
  const std::vector<BankAssignment>& assignments() const { return assignments_; }

  /// Snapshot: static placement facts + live search counts + exact energy
  /// of each bank's ledger under `model`.
  std::vector<BankStats> stats(const ops::EnergyModel& model) const;

  /// Zeroes the per-bank ledgers (compile-time warm-up is not traffic —
  /// same rule as the network OpCounter).
  void reset();

 private:
  BankConfig config_;
  CamNetworkExport* network_;
  std::vector<BankAssignment> assignments_;
  std::vector<std::unique_ptr<OpCounter>> ports_;  ///< one ledger per bank
  std::vector<std::int64_t> bank_words_;
  std::vector<std::int64_t> bank_arrays_;
};

}  // namespace pecan::cam
