#pragma once
// Umbrella header: the full armbar public API.
//
//   #include <armbar/armbar.hpp>
//
// Fine-grained headers remain available for faster builds; this header is
// for quick starts and examples.

// Utilities.
#include "armbar/util/affinity.hpp"
#include "armbar/util/args.hpp"
#include "armbar/util/backoff.hpp"
#include "armbar/util/bits.hpp"
#include "armbar/util/cacheline.hpp"
#include "armbar/util/prng.hpp"
#include "armbar/util/stats.hpp"
#include "armbar/util/table.hpp"
#include "armbar/util/vtime.hpp"

// Machine topology.
#include "armbar/topo/machine.hpp"
#include "armbar/topo/machine_file.hpp"
#include "armbar/topo/placement.hpp"
#include "armbar/topo/platforms.hpp"

// Analytical cost model.
#include "armbar/model/cost_model.hpp"

// Native barrier library.
#include "armbar/barriers/barrier.hpp"
#include "armbar/barriers/central_sense.hpp"
#include "armbar/barriers/combining_tree.hpp"
#include "armbar/barriers/dissemination.hpp"
#include "armbar/barriers/extensions.hpp"
#include "armbar/barriers/factory.hpp"
#include "armbar/barriers/ftournament.hpp"
#include "armbar/barriers/hypercube.hpp"
#include "armbar/barriers/mcs_tree.hpp"
#include "armbar/barriers/notify.hpp"
#include "armbar/barriers/shape.hpp"
#include "armbar/barriers/std_wrappers.hpp"
#include "armbar/barriers/team.hpp"
#include "armbar/barriers/tournament.hpp"

// The paper's optimized barrier.
#include "armbar/core/optimized.hpp"

// Simulator.
#include "armbar/sim/engine.hpp"
#include "armbar/sim/memory.hpp"
#include "armbar/sim/task.hpp"
#include "armbar/sim/trace.hpp"

// Simulated barriers + measurement + tuning.
#include "armbar/simbar/autotune.hpp"
#include "armbar/simbar/latency_probe.hpp"
#include "armbar/simbar/runner.hpp"
#include "armbar/simbar/sim_barriers.hpp"

// Native EPCC-style measurement.
#include "armbar/epcc/epcc.hpp"

namespace armbar {

/// Library version (reproduction release).
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;

}  // namespace armbar
