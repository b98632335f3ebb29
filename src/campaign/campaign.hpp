// Umbrella header for the campaign subsystem: declarative parameter
// sweeps over registered scenarios, executed in parallel, recorded as
// JSON Lines with resume.  See docs/CAMPAIGN.md.
#pragma once

#include "campaign/executor.hpp"   // IWYU pragma: export
#include "campaign/param_set.hpp"  // IWYU pragma: export
#include "campaign/recorder.hpp"   // IWYU pragma: export
#include "campaign/scenario.hpp"   // IWYU pragma: export
#include "campaign/sweep.hpp"      // IWYU pragma: export
#include "campaign/trace_files.hpp"  // IWYU pragma: export
