// Theorem 5.1: one step of the CRCW PRAM(m) simulated on the QSM(m) in
// O(p/m), provided m = O(p^{1-eps}).
//
// The hard part is concurrent reads.  Following the paper: each processor
// i publishes the pair (addr_i, i) into an array A; A is sorted by address
// into B; m designated processors fetch the value of the address at the
// head of each stripe of B into an auxiliary array C; then p/m "central
// read steps" run — in step j, processor i with i = j (mod p/m) consults
// C[i m / p] and, only when its address differs from the stripe head's,
// reads the memory cell directly.  Because B is sorted, at most one
// processor touches any memory cell per central read step (contention 1).
//
// We realize the sort as a distributed counting sort over the m-cell
// address universe (the PRAM(m)'s shared memory has only m cells), which
// costs O(p/m + m) — the Theta(p/m) shape for m <= sqrt(p).  DESIGN.md
// records this substitution for the paper's comparison-sort subroutine.
#pragma once

#include <cstdint>
#include <vector>

#include "algos/common.hpp"
#include "engine/cost.hpp"

namespace pbw::pram {

struct CrSimResult {
  engine::SimTime time = 0.0;
  std::uint64_t supersteps = 0;
  bool correct = false;        ///< every processor received memory[addr_i]
  std::uint64_t direct_reads = 0;  ///< memory reads outside the C shortcut
};

/// How the values reach the (sorted) requesters after the sort.
enum class CrDistribution {
  /// The paper's method: p/m central read steps, O(p/m) total.
  kCentralReads,
  /// "The standard EREW PRAM simulation of a CRCW PRAM": segmented
  /// doubling within each same-address run of B — lg p rounds of p/m-cost
  /// staggered reads, O((p/m) lg p) total.  The proof of Theorem 5.1
  /// introduces the central-read method precisely because this one is not
  /// optimal; the pram.central_reads scenario (E19) measures the gap.
  kStandardDoubling,
};

/// Simulates one concurrent-read step: processor i wants memory[addr[i]],
/// where memory has m cells.  Runs on the given QSM-family model.
[[nodiscard]] CrSimResult simulate_cr_step(
    const engine::CostModel& model, const std::vector<engine::Word>& memory,
    const std::vector<std::uint32_t>& addr, std::uint32_t m,
    CrDistribution distribution = CrDistribution::kCentralReads,
    engine::MachineOptions options = {});

}  // namespace pbw::pram
