#include "replay/batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/model/charge.hpp"
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

/// One charge block under construction: the points of one family sharing
/// a c_m array, with their per-point parameters gathered into SoA lanes.
struct Block {
  ModelFamily family = ModelFamily::kBspG;
  const double* cm = nullptr;   ///< bound after all c_m arrays are final
  std::uint64_t cm_id = 0;      ///< cm_key the block shares (m-families)
  std::uint32_t m = 0;          ///< the (m, penalty) behind cm_id
  core::Penalty penalty = core::Penalty::kLinear;
  std::size_t count = 0;         ///< points in this block (then fill cursor)
  std::vector<double> p0, p1;    ///< family-specific lanes (batch_lanes.hpp)
  std::vector<double> out;       ///< per-point totals, pre-zeroed
};

}  // namespace

void CostPointSpec::check() const {
  switch (family) {
    case ModelFamily::kBspG:
    case ModelFamily::kQsmG:
      if (g < 1.0) throw std::invalid_argument("CostPointSpec: g < 1");
      break;
    case ModelFamily::kBspM:
    case ModelFamily::kQsmM:
    case ModelFamily::kSelfSchedulingBspM:
      if (m == 0) throw std::invalid_argument("CostPointSpec: m == 0");
      break;
  }
  switch (family) {
    case ModelFamily::kBspG:
    case ModelFamily::kBspM:
    case ModelFamily::kSelfSchedulingBspM:
      if (L < 1.0) throw std::invalid_argument("CostPointSpec: L < 1");
      break;
    case ModelFamily::kQsmG:
    case ModelFamily::kQsmM:
      break;  // QSM has no latency floor
  }
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
                                          std::span<const CostPointSpec> points) {
  return recost_batch(tape, points, nullptr, nullptr);
}

std::vector<engine::SimTime> recost_batch(const StatsTape& tape,
                                          std::span<const CostPointSpec> points,
                                          util::ThreadPool* pool,
                                          BatchInfo* info) {
  if (info != nullptr) {
    *info = BatchInfo{};
    info->path = batch_kernel_path();
  }
  // Empty batch: nothing to validate, no tape traversal, no allocations.
  if (points.empty()) return {};

  const std::size_t n = tape.size();
  if (n == 0) {
    // Matches scalar recost: an empty tape replays to total_time == 0.0
    // for every (still validated) point.
    for (const CostPointSpec& point : points) point.check();
    return std::vector<engine::SimTime>(points.size(), 0.0);
  }

  // Partition the batch into charge blocks: one per (family, c_m array).
  // Families without a c_m array form one block each; their parameter
  // spread lives entirely in the lanes.  Two passes: discover blocks and
  // sizes (validating each point on the way), then gather the lanes into
  // exactly-sized SoA arrays.  Real grids arrive in runs (the inner axes
  // vary fastest), so a two-entry MRU of the last blocks resolves almost
  // every point without touching the hash map — on a million-point batch
  // that lookup would otherwise dominate the partition.
  std::vector<Block> blocks;
  std::unordered_map<std::uint64_t, std::size_t> block_index;
  std::vector<std::uint32_t> point_block(points.size());
  // Dense side array for the per-point size increment: the Block structs
  // themselves are too big to keep dozens of them cache-hot in this pass.
  std::vector<std::size_t> counts;
  {
    std::uint64_t mru_key[2] = {~0ull, ~0ull};
    std::uint32_t mru_block[2] = {0, 0};
    for (std::size_t k = 0; k < points.size(); ++k) {
      const CostPointSpec& point = points[k];
      point.check();
      const bool has_cm = point.family == ModelFamily::kBspM ||
                          point.family == ModelFamily::kQsmM;
      const std::uint64_t id = has_cm ? cm_key(point.m, point.penalty) : 0;
      // cm_key spans 33 bits (32-bit m plus the penalty bit); the family
      // tag packs above it.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(point.family) << 34) | id;
      std::uint32_t b;
      if (key == mru_key[0]) {
        b = mru_block[0];
      } else if (key == mru_key[1]) {
        b = mru_block[1];
        std::swap(mru_key[0], mru_key[1]);
        std::swap(mru_block[0], mru_block[1]);
      } else {
        auto [it, inserted] = block_index.try_emplace(key, blocks.size());
        if (inserted) {
          blocks.emplace_back();
          blocks.back().family = point.family;
          blocks.back().cm_id = id;
          blocks.back().m = point.m;
          blocks.back().penalty = point.penalty;
          counts.push_back(0);
        }
        b = static_cast<std::uint32_t>(it->second);
        mru_key[1] = mru_key[0];
        mru_block[1] = mru_block[0];
        mru_key[0] = key;
        mru_block[0] = b;
      }
      point_block[k] = b;
      ++counts[b];
    }
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) blocks[b].count = counts[b];
  for (Block& block : blocks) {
    switch (block.family) {
      case ModelFamily::kBspG:
      case ModelFamily::kSelfSchedulingBspM:
        block.p0.resize(block.count);
        block.p1.resize(block.count);
        break;
      case ModelFamily::kBspM:
      case ModelFamily::kQsmG:
        block.p0.resize(block.count);
        break;
      case ModelFamily::kQsmM:
        break;  // no per-point lanes: every point of the block is identical
    }
    block.count = 0;  // becomes the gather cursor below
  }
  for (std::size_t k = 0; k < points.size(); ++k) {
    const CostPointSpec& point = points[k];
    Block& block = blocks[point_block[k]];
    const std::size_t slot = block.count++;
    switch (point.family) {
      case ModelFamily::kBspG:
        block.p0[slot] = point.g;
        block.p1[slot] = point.L;
        break;
      case ModelFamily::kBspM:
        block.p0[slot] = point.L;
        break;
      case ModelFamily::kQsmG:
        block.p0[slot] = point.g;
        break;
      case ModelFamily::kQsmM:
        break;
      case ModelFamily::kSelfSchedulingBspM:
        block.p0[slot] = static_cast<double>(point.m);
        block.p1[slot] = point.L;
        break;
    }
  }

  std::vector<engine::SimTime> totals(points.size(), 0.0);
  // Which term arrays does this batch need?  Derived from the blocks —
  // the partition already folded a million points down to a handful.
  bool need_msg_h = false, need_mem_h = false, need_mem_h1 = false;
  bool need_kappa = false, need_flits = false;
  for (const Block& block : blocks) {
    switch (block.family) {
      case ModelFamily::kBspG:
      case ModelFamily::kBspM:
        need_msg_h = true;
        break;
      case ModelFamily::kQsmG:
        need_mem_h1 = true;
        need_kappa = true;
        break;
      case ModelFamily::kQsmM:
        need_mem_h = true;
        need_kappa = true;
        break;
      case ModelFamily::kSelfSchedulingBspM:
        need_msg_h = true;
        need_flits = true;
        break;
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

  // Aggregate charge c_m[i], computed once per distinct (m, penalty) pair
  // however many points share it (the blocks carry one (m, penalty) each,
  // so this walks blocks, not points), by the same charge::cm the virtual
  // models call.
  std::unordered_map<std::uint64_t, std::vector<double>> cm_arrays;
  for (const Block& block : blocks) {
    if (block.family != ModelFamily::kBspM &&
        block.family != ModelFamily::kQsmM) {
      continue;
    }
    auto [it, inserted] = cm_arrays.try_emplace(block.cm_id);
    if (!inserted) continue;
    std::vector<double>& cm = it->second;
    cm.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cm[i] = charge::cm(tape.slots(i), block.m, block.penalty);
    }
  }

  for (Block& block : blocks) {
    block.out.assign(block.count, 0.0);
    if (block.family == ModelFamily::kBspM ||
        block.family == ModelFamily::kQsmM) {
      block.cm = cm_arrays.at(block.cm_id).data();
    }
  }

  const double* w = tape.max_work.data();
  const detail::TermStreams terms{
      n,
      w,
      need_msg_h ? msg_h.data() : nullptr,
      need_mem_h ? mem_h.data() : nullptr,
      need_mem_h1 ? mem_h1.data() : nullptr,
      need_kappa ? kappa_d.data() : nullptr,
      need_flits ? flits_d.data() : nullptr,
  };

  // QSM(m) blocks collapse: with m and penalty fixed by the block, every
  // point charges identically, so run the scalar chain once and fan the
  // total out.
  for (Block& block : blocks) {
    if (block.family != ModelFamily::kQsmM) continue;
    const charge::QsmM f{};
    engine::SimTime total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += f(w[i], mem_h[i], block.cm[i], kappa_d[i]);
    }
    std::fill(block.out.begin(), block.out.end(), total);
  }

  // Everything else goes through the dispatched kernel, chopped into
  // fixed-size point ranges.  Ranges write disjoint out slots, so the
  // task-to-thread assignment cannot affect the result.
  const simd::Path path = batch_kernel_path();
  const detail::ChargeBlockFn kernel = kernel_for(path);
  struct Task {
    std::size_t block = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  // A multiple of the kernel's L1 tile; big enough that task dispatch
  // overhead stays invisible, small enough to load-balance a skewed
  // block mix.
  constexpr std::size_t kTaskPoints = 8192;
  std::vector<Task> tasks;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].family == ModelFamily::kQsmM) continue;
    const std::size_t count = blocks[b].count;
    for (std::size_t begin = 0; begin < count; begin += kTaskPoints) {
      tasks.push_back(Task{b, begin, std::min(count, begin + kTaskPoints)});
    }
  }

  const auto run_task = [&](std::size_t t) {
    Block& block = blocks[tasks[t].block];
    const detail::LaneBlock lanes{
        block.family,
        block.cm,
        block.count,
        block.p0.empty() ? nullptr : block.p0.data(),
        block.p1.empty() ? nullptr : block.p1.data(),
        block.out.data(),
    };
    kernel(terms, lanes, tasks[t].begin, tasks[t].end);
  };

  std::size_t threads = 1;
  if (pool != nullptr && pool->size() > 1 && tasks.size() > 1) {
    threads = std::min(pool->size(), tasks.size());
    pool->parallel_for(tasks.size(), run_task);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) run_task(t);
  }

  // Scatter block outputs back to input order by replaying the gather
  // cursors: point k was the cursor[b]-th point of its block.
  std::fill(counts.begin(), counts.end(), 0);
  for (std::size_t k = 0; k < points.size(); ++k) {
    const std::uint32_t b = point_block[k];
    totals[k] = blocks[b].out[counts[b]++];
  }

  if (info != nullptr) {
    info->path = path;
    info->threads = threads;
    info->blocks = blocks.size();
  }
  return totals;
}

}  // namespace pbw::replay
