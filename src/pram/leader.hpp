// Leader Recognition on the PRAM(m) (Definition 5.1): the input ROM holds
// p cells, exactly one of which is 1; every processor must learn its
// address.
//
// With concurrent read the answer is broadcast through one shared cell in
// O(max(lg p / w, 1)) steps.  With exclusive read the answer must squeeze
// through the m cells one reader per cell per step, and discovery itself
// takes p/m ROM scans — Theta(p/m + lg m) steps, matching the
// Omega(p lg m / (m w)) lower bound of Lemma 5.3 up to the lg factors the
// paper tracks.  The pram.leader scenario (E4) records the measured ER/CR
// gap next to the Theta(p lg m / (m lg p)) separation formula.
#pragma once

#include <cstdint>

#include "pram/pram.hpp"

namespace pbw::pram {

struct LeaderResult {
  double time = 0.0;
  std::uint64_t steps = 0;
  bool correct = false;  ///< every processor identified the leader
};

/// Concurrent-read algorithm on the CR PRAM(m): each processor probes one
/// ROM cell; the finder publishes through shared cell 0; everyone reads it
/// concurrently.
[[nodiscard]] LeaderResult leader_concurrent_read(std::uint32_t p, std::uint32_t m,
                                                  std::uint32_t leader,
                                                  std::uint64_t seed = 1);

/// Exclusive-read algorithm on the ER PRAM(m): m scanners sweep p/m ROM
/// cells each, the answer replicates across the m cells by exclusive
/// doubling, then the p processors drain it m readers per step.
[[nodiscard]] LeaderResult leader_exclusive_read(std::uint32_t p, std::uint32_t m,
                                                 std::uint32_t leader,
                                                 std::uint64_t seed = 1);

}  // namespace pbw::pram
