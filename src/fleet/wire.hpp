// Fleet wire protocol: JSON encodings shared by coordinator and workers.
//
// Everything the fleet moves over HTTP is plain JSON (docs/FLEET.md), but
// two encodings are load-bearing:
//
//  * Jobs travel with their parameters as *strings* — the exact text the
//    sweep expander produced — never as JSON numbers.  A number round
//    trip could rewrite "4.0" as "4", silently changing the canonical
//    manifest key and breaking resume/dedup.
//  * Metric values travel as hex-encoded IEEE-754 bit patterns
//    ("0x3fe0000000000000"), not decimal floats.  The acceptance bar for
//    a fleet run is bit-identical JSONL versus a local --threads run, and
//    the executor's replay gate compares doubles by bits (-0.0 != 0.0),
//    so the wire must not round anything — including non-finite values,
//    which JSON numbers cannot carry at all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "campaign/sweep.hpp"
#include "obs/telemetry/span.hpp"
#include "util/json.hpp"

namespace pbw::fleet {

/// "0x" + 16 lowercase hex digits of the double's bit pattern.
[[nodiscard]] std::string double_to_bits(double v);

/// Inverse of double_to_bits.  Throws std::invalid_argument on bad input.
[[nodiscard]] double double_from_bits(const std::string& hex);

/// json[key]; throws std::invalid_argument naming `key` when it is
/// missing.  Coordinator and worker are one binary, so a job or a grant
/// lacks no field.
[[nodiscard]] const util::Json& require(const util::Json& json,
                                        const char* key);

/// A uint64 sent as a decimal JSON string (seeds, span clocks: both
/// outgrow a double's 2^53).  Throws std::invalid_argument naming `what`
/// unless the whole string is the number.
[[nodiscard]] std::uint64_t u64_from_string(const std::string& s,
                                            const char* what);

/// {"scenario": "...", "params": {"p": "64", ...}, "seed": "1", "trials": 2}
/// Seed is a string: uint64 does not fit a JSON double above 2^53.
[[nodiscard]] util::Json job_to_json(const campaign::Job& job);

/// Rebuilds a Job against `registry`.  Throws std::invalid_argument on an
/// unknown scenario or malformed fields — a version-skewed worker must
/// fail loudly, not run the wrong grid point.
[[nodiscard]] campaign::Job job_from_json(const util::Json& json,
                                          const campaign::Registry& registry);

/// [[["metric","0x..."], ...], ...] — one inner array per trial.
[[nodiscard]] util::Json rows_to_json(
    const std::vector<campaign::MetricRow>& trials);

[[nodiscard]] std::vector<campaign::MetricRow> rows_from_json(
    const util::Json& json);

/// Span events as compact arrays:
/// [["name","<start_ns>","<dur_ns>",tid,depth,"<parent hex16>"], ...].
/// start/dur travel as decimal strings (u64 exceeds a JSON double's 2^53
/// integer range once a process has been up long enough; flamegraph
/// timestamps must not round).  Trace ids are implied by the enclosing
/// report — every shipped span belongs to the grant's trace.
[[nodiscard]] util::Json span_events_to_json(
    const std::vector<obs::SpanEvent>& events);

/// Inverse; throws std::invalid_argument on malformed entries.
[[nodiscard]] std::vector<obs::SpanEvent> span_events_from_json(
    const util::Json& json);

}  // namespace pbw::fleet
