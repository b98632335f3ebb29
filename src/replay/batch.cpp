#include "replay/batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/model/charge.hpp"
#include "obs/metrics.hpp"
#include "replay/batch_lanes.hpp"

namespace pbw::replay {

namespace {

namespace charge = core::charge;

/// Per-(m, penalty) key for the aggregate-charge cache.  m is 32-bit, so
/// the penalty bit packs into the low bit of a 64-bit key losslessly.
std::uint64_t cm_key(std::uint32_t m, core::Penalty penalty) {
  return (static_cast<std::uint64_t>(m) << 1) |
         (penalty == core::Penalty::kExponential ? 1u : 0u);
}

/// The charge kernels this binary compiled.  Scalar is unconditional; the
/// vector TUs are compiled (and their PBW_HAVE_KERNEL_* macro defined by
/// src/replay/CMakeLists.txt) only when the build enables the matching
/// instruction set, so a -DPBW_SIMD_AVX2=OFF binary simply has no AVX2
/// entry to dispatch to.
detail::ChargeBlockFn kernel_for(simd::Path path) noexcept {
  switch (path) {
    case simd::Path::kScalar:
      return &detail::charge_block_scalar;
    case simd::Path::kSse2:
#if defined(PBW_HAVE_KERNEL_SSE2)
      return &detail::charge_block_sse2;
#else
      return nullptr;
#endif
    case simd::Path::kAvx2:
#if defined(PBW_HAVE_KERNEL_AVX2)
      return &detail::charge_block_avx2;
#else
      return nullptr;
#endif
    case simd::Path::kAvx512:
#if defined(PBW_HAVE_KERNEL_AVX512)
      return &detail::charge_block_avx512;
#else
      return nullptr;
#endif
    case simd::Path::kNeon:
#if defined(PBW_HAVE_KERNEL_NEON)
      return &detail::charge_block_neon;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

/// Degrades `path` until this binary has a kernel for it.  Terminates:
/// the ladder ends at kScalar, which is always compiled.
simd::Path clamp_to_compiled(simd::Path path) noexcept {
  while (kernel_for(path) == nullptr) path = simd::step_down(path);
  return path;
}

template <typename T>
void require_floor(std::span<const T> axis, T floor, const char* message) {
  for (const T v : axis) {
    if (v < floor) throw std::invalid_argument(message);
  }
}

/// Charges every point of `grids` into `out` over a non-empty tape and
/// returns the pool lanes that charged them; adds the slots the c_m pass
/// read to `cm_slots`.
std::size_t charge_grids(const StatsTape& tape,
                         std::span<const CostGrid> grids,
                         util::ThreadPool* pool, detail::ChargeBlockFn kernel,
                         std::size_t points, double* out,
                         std::uint64_t& cm_slots) {
  const std::size_t n = tape.size();
  bool need_msg_h = false, need_mem_h = false, need_mem_h1 = false;
  bool need_kappa = false, need_flits = false, need_cm = false;
  for (const CostGrid& grid : grids) {
    for (const ModelFamily family : grid.families) {
      switch (family) {
        case ModelFamily::kBspG:
          need_msg_h = true;
          break;
        case ModelFamily::kBspM:
          need_msg_h = need_cm = true;
          break;
        case ModelFamily::kQsmG:
          need_mem_h1 = need_kappa = true;
          break;
        case ModelFamily::kQsmM:
          need_mem_h = need_kappa = need_cm = true;
          break;
        case ModelFamily::kSelfSchedulingBspM:
          need_msg_h = need_flits = true;
          break;
      }
    }
  }

  // Per-superstep term arrays, derived once for the whole batch with the
  // same charge.hpp helpers cost_components() uses.
  std::vector<double> msg_h, mem_h, mem_h1, kappa_d, flits_d;
  if (need_msg_h) {
    msg_h.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      msg_h[i] = charge::flit_h(tape.max_sent[i], tape.max_received[i]);
    }
  }
  if (need_mem_h) {
    mem_h.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      mem_h[i] = charge::mem_h(tape.max_reads[i], tape.max_writes[i]);
    }
  }
  if (need_mem_h1) {
    mem_h1.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      mem_h1[i] = charge::mem_h_floor1(tape.max_reads[i], tape.max_writes[i]);
    }
  }
  if (need_kappa) {
    kappa_d.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      kappa_d[i] = static_cast<double>(tape.kappa[i]);
    }
  }
  if (need_flits) {
    flits_d.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      flits_d[i] = static_cast<double>(tape.step_flits[i]);
    }
  }

  // Each superstep's slots are summarized once per batch; c_m then walks
  // only the supersteps where some slot passes m.
  std::vector<charge::SlotSummary> summaries;
  if (need_cm) {
    summaries.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto slots = tape.slots(i);
      summaries[i] = charge::summarize(slots);
      cm_slots += slots.size();
    }
  }

  // Lane arrays and c_m matrices the blocks point into.  Each is its own
  // vector, so its data stays put while more are added.
  std::vector<std::vector<double>> storage;
  const auto lanes = [&storage](std::size_t size) {
    return storage.emplace_back(size).data();
  };
  // Where each (m, penalty) c_m column was first computed: a repeat,
  // in this grid or another, copies it.
  struct Column {
    const double* data;
    std::size_t stride;
  };
  std::unordered_map<std::uint64_t, Column> columns;
  // A grid's c_m matrix: superstep-major, one column per (m, penalty) in
  // point order (m outer, penalty inner).
  const auto cm_matrix = [&](const CostGrid& grid) {
    const std::size_t stride = grid.m.size() * grid.penalties.size();
    double* matrix = lanes(stride * n);
    std::size_t col = 0;
    for (const std::uint32_t m : grid.m) {
      for (const core::Penalty penalty : grid.penalties) {
        const auto [it, fresh] = columns.try_emplace(
            cm_key(m, penalty), Column{matrix + col, stride});
        if (fresh) {
          for (std::size_t i = 0; i < n; ++i) {
            matrix[i * stride + col] =
                charge::cm(tape.slots(i), summaries[i], m, penalty);
            if (!summaries[i].within(m)) cm_slots += tape.slots(i).size();
          }
        } else {
          const Column from = it->second;
          for (std::size_t i = 0; i < n; ++i) {
            matrix[i * stride + col] = from.data[i * from.stride];
          }
        }
        ++col;
      }
    }
    return matrix;
  };

  // One block per family of each grid, except BSP(m), which has one per L
  // value: its c_m lanes share L.
  std::vector<detail::LaneBlock> blocks;
  std::size_t offset = 0;
  for (const CostGrid& grid : grids) {
    const double* cm = nullptr;
    for (const ModelFamily family : grid.families) {
      const auto sizes = grid.axis_sizes(family);
      const std::size_t count = sizes[0] * sizes[1] * sizes[2] * sizes[3];
      if (count == 0) continue;
      detail::LaneBlock block;
      block.family = family;
      block.count = count;
      block.out = out + offset;
      offset += count;
      switch (family) {
        case ModelFamily::kBspG: {
          double* g = lanes(count);
          double* L = lanes(count);
          std::size_t k = 0;
          for (const double gv : grid.g) {
            for (const double Lv : grid.L) {
              g[k] = gv;
              L[k++] = Lv;
            }
          }
          block.p0 = g;
          block.p1 = L;
          blocks.push_back(block);
          break;
        }
        case ModelFamily::kQsmG:
          block.p0 = grid.g.data();
          blocks.push_back(block);
          break;
        case ModelFamily::kSelfSchedulingBspM: {
          double* m = lanes(count);
          double* L = lanes(count);
          std::size_t k = 0;
          for (const double Lv : grid.L) {
            for (const std::uint32_t mv : grid.m) {
              m[k] = static_cast<double>(mv);
              L[k++] = Lv;
            }
          }
          block.p0 = m;
          block.p1 = L;
          blocks.push_back(block);
          break;
        }
        case ModelFamily::kBspM:
        case ModelFamily::kQsmM: {
          if (cm == nullptr) cm = cm_matrix(grid);
          block.cm = cm;
          block.cm_stride = sizes[2] * sizes[3];
          block.count = block.cm_stride;
          if (family == ModelFamily::kQsmM) {
            blocks.push_back(block);
            break;
          }
          for (const double Lv : grid.L) {
            block.L = Lv;
            blocks.push_back(block);
            block.out += block.count;
          }
          break;
        }
      }
    }
  }

  const detail::TermStreams terms{
      n,
      tape.max_work.data(),
      need_msg_h ? msg_h.data() : nullptr,
      need_mem_h ? mem_h.data() : nullptr,
      need_mem_h1 ? mem_h1.data() : nullptr,
      need_kappa ? kappa_d.data() : nullptr,
      need_flits ? flits_d.data() : nullptr,
  };

  // Fixed-size lane ranges write disjoint out slots, so the task-to-thread
  // assignment cannot affect the result.
  struct Task {
    std::size_t block = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Task> tasks;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::size_t count = blocks[b].count;
    for (std::size_t begin = 0; begin < count; begin += kTaskPoints) {
      tasks.push_back(Task{b, begin, std::min(count, begin + kTaskPoints)});
    }
  }
  const auto run_task = [&](std::size_t t) {
    kernel(terms, blocks[tasks[t].block], tasks[t].begin, tasks[t].end);
  };
  if (pool != nullptr && pool->size() > 1 && points > kTaskPoints &&
      tasks.size() > 1) {
    pool->parallel_for(tasks.size(), run_task);
    return std::min(pool->size(), tasks.size());
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) run_task(t);
  return 1;
}

}  // namespace

CostGrid CostGrid::point(const CostPointSpec& spec) noexcept {
  return CostGrid{{&spec.family, 1}, {&spec.g, 1}, {&spec.L, 1},
                  {&spec.m, 1}, {&spec.penalty, 1}};
}

std::array<std::size_t, 4> CostGrid::axis_sizes(
    ModelFamily family) const noexcept {
  return {reads_g(family) ? g.size() : 1, reads_L(family) ? L.size() : 1,
          reads_m(family) ? m.size() : 1,
          reads_penalty(family) ? penalties.size() : 1};
}

std::size_t CostGrid::size() const noexcept {
  std::size_t total = 0;
  for (const ModelFamily family : families) {
    const auto sizes = axis_sizes(family);
    total += sizes[0] * sizes[1] * sizes[2] * sizes[3];
  }
  return total;
}

void CostGrid::check() const {
  bool g_read = false, L_read = false, m_read = false;
  for (const ModelFamily family : families) {
    g_read = g_read || reads_g(family);
    L_read = L_read || reads_L(family);
    m_read = m_read || reads_m(family);
  }
  if (g_read) require_floor(g, 1.0, "CostGrid: g < 1");
  if (L_read) require_floor(L, 1.0, "CostGrid: L < 1");
  if (m_read) require_floor(m, std::uint32_t{1}, "CostGrid: m == 0");
}

simd::Path batch_kernel_path() noexcept {
  return clamp_to_compiled(simd::active_path());
}

std::vector<simd::Path> available_kernel_paths() {
  std::vector<simd::Path> paths;
  for (simd::Path path : simd::supported_paths()) {
    if (kernel_for(path) != nullptr) paths.push_back(path);
  }
  return paths;
}

std::vector<engine::SimTime> recost_batch(const StatsTape& tape,
                                          std::span<const CostGrid> grids,
                                          util::ThreadPool* pool,
                                          BatchInfo* info) {
  const simd::Path path = batch_kernel_path();
  if (info != nullptr) {
    *info = BatchInfo{};
    info->path = path;
  }
  std::size_t points = 0;
  for (const CostGrid& grid : grids) {
    grid.check();
    points += grid.size();
  }
  // No points: no tape traversal, no allocations.
  if (points == 0) return {};

  // An empty tape replays to total_time == 0.0 at every point, as scalar
  // recost does.
  std::vector<engine::SimTime> totals(points, 0.0);
  std::uint64_t cm_slots = 0;
  std::size_t threads = 1;
  if (!tape.empty()) {
    threads = charge_grids(tape, grids, pool, kernel_for(path), points,
                           totals.data(), cm_slots);
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("replay.points_charged").add(points);
  metrics.counter("replay.cm_slots_walked").add(cm_slots);
  if (info != nullptr) {
    info->threads = threads;
    info->points = points;
    info->cm_slots = cm_slots;
  }
  return totals;
}

}  // namespace pbw::replay
