// Umbrella header: the whole public API.
//
//   #include "pbw.hpp"
//
// Fine-grained headers remain available for faster builds; this header is
// for examples, experiments, and exploratory use.
#pragma once

// Substrate: the SPMD superstep simulator.
#include "engine/cost.hpp"
#include "engine/error.hpp"
#include "engine/machine.hpp"
#include "engine/program.hpp"
#include "engine/types.hpp"

// The paper's models and bounds.
#include "core/bounds.hpp"
#include "core/model/emulation.hpp"
#include "core/model/models.hpp"
#include "core/model/params.hpp"
#include "core/model/penalty.hpp"

// Section 6: unbalanced h-relation scheduling.
#include "sched/count_n.hpp"
#include "sched/qsm_routing.hpp"
#include "sched/relation.hpp"
#include "sched/runner.hpp"
#include "sched/schedule.hpp"
#include "sched/senders.hpp"
#include "sched/workloads.hpp"

// Section 4: algorithms on the four models.
#include "algos/broadcast.hpp"
#include "algos/columnsort.hpp"
#include "algos/gossip.hpp"
#include "algos/list_ranking.hpp"
#include "algos/one_to_all.hpp"
#include "algos/prefix.hpp"
#include "algos/reduce.hpp"
#include "algos/sorting.hpp"

// Sections 4.1 and 5: PRAM substrates.
#include "pram/cr_sim.hpp"
#include "pram/h_relation.hpp"
#include "pram/leader.hpp"
#include "pram/pram.hpp"

// Section 6.2: adversarial queuing.
#include "aqt/adversary.hpp"
#include "aqt/dynamic.hpp"
#include "aqt/sliding.hpp"

// Observability: cost-attribution traces derived from a run's stats tape,
// metrics, exporters (docs/OBSERVABILITY.md).
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay/recorder.hpp"

// Utilities used throughout.
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/zipf.hpp"
