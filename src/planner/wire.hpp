// JSON wire format of the planner: envelope and tape codecs plus the plan
// report serializer, shared by the /plan HTTP endpoint and `pbw-campaign
// plan` so a saved request file and a curl body are the same document.
//
// Schema (docs/PLANNER.md):
//
//   envelope: {
//     "families": ["bsp-g", "bsp-m", "qsm-g", "qsm-m", "ss-bsp-m"],
//     "g": [1, 2, 4]            — an axis is a list of values, or
//     "L": {"min": 1, "max": 64, "steps": 8, "scale": "linear"|"log"},
//     "m": ...,
//     "penalty": ["linear", "exp"],
//     "frontier_percent": 10, "max_frontier": 32
//   }
//
//   tape: {"p": .., "seed": .., "captured_model": ..,
//          "steps": [{"w": .., "sent": .., "received": .., "flits": ..,
//                     "reads": .., "writes": .., "kappa": .., "requests": ..,
//                     "slots": [..]} ..],
//          "totals": {"messages": .., "flits": .., "reads": .., "writes": ..}}
//
// Decoders are strict — unknown keys, wrong types and out-of-domain values
// throw std::invalid_argument, which the service maps to HTTP 400.
#pragma once

#include <cstdint>
#include <string>

#include "planner/planner.hpp"
#include "replay/tape.hpp"
#include "util/json.hpp"

namespace pbw::planner {

/// Parses an envelope document (see schema above).  Absent keys keep the
/// Envelope defaults; a "log" range axis is a geometric progression with
/// integer axes deduplicated after rounding.
[[nodiscard]] Envelope envelope_from_json(const util::Json& json);

/// The plan report: best point, frontier, dominant-term analysis,
/// marginals, grid/tape identity (docs/PLANNER.md lists every field).
[[nodiscard]] util::Json plan_to_json(const PlanResult& result);

/// One grid point as {"family", the axes the family reads, "cost",
/// "index"}.
[[nodiscard]] util::Json point_to_json(const PlannedPoint& point);

/// Json::as_u64 for a request field: anything but an integer in [0, 2^64)
/// throws std::invalid_argument naming `where`.
[[nodiscard]] std::uint64_t u64_from_json(const util::Json& json,
                                          const std::string& where);

/// Tape round-trip, for saving recorded tapes and POSTing inline ones.
[[nodiscard]] util::Json tape_to_json(const replay::StatsTape& tape);
[[nodiscard]] replay::StatsTape tape_from_json(const util::Json& json);

}  // namespace pbw::planner
