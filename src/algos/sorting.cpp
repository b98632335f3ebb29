#include "algos/sorting.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "engine/error.hpp"
#include "engine/program.hpp"

namespace pbw::algos {
namespace {

std::uint32_t floor_pow2(std::uint32_t x) {
  std::uint32_t p = 1;
  while (2 * p <= x) p *= 2;
  return p;
}

std::uint32_t lg_exact(std::uint32_t pow2) {
  std::uint32_t l = 0;
  while ((1u << l) < pow2) ++l;
  return l;
}

/// A gather round's inbox is the partner's whole pool, sent in pool order
/// from one source at rising slots, so it arrives sorted: merge it into
/// `pool`, which stays sorted.
void merge_pool(const engine::ProcContext& ctx, std::vector<engine::Word>& pool) {
  const auto mid = static_cast<std::ptrdiff_t>(pool.size());
  for (const auto& msg : ctx.inbox()) pool.push_back(msg.payload);
  std::inplace_merge(pool.begin(), pool.begin() + mid, pool.end());
}

/// Distributed randomized sample sort; see header for the phase plan:
///   s0                 distribute keys to S sorters (staggered n-relation)
///   s1                 local sort + pick samples, sorted; all-gather round 0
///   s1+k, k<lgS        hypercube all-gather of samples, each round's pool
///                      merged in, so every sorter's pool stays sorted
///   sA = 1+lgS         merge the last round, charged linearly in the pool
///                      size; splitters; bucket exchange (staggered
///                      n-relation)
///   sA+1               bucket sort; size all-gather round 0
///   sA+1+k, k<lgS      hypercube all-gather of bucket sizes
///   sB = sA+1+lgS      global offsets; final placement (staggered, by rank)
///   sB+1               receivers store keys at their rank offsets
class SampleSortProgram final : public engine::SuperstepProgram {
 public:
  SampleSortProgram(const std::vector<engine::Word>& keys, std::uint32_t p,
                    std::uint32_t m, std::uint32_t samples)
      : keys_(keys),
        n_(static_cast<std::uint64_t>(keys.size())),
        p_(p),
        m_(m),
        samples_(std::max(1u, samples)),
        sorters_(floor_pow2(std::max(
            2u, std::min(p, m * static_cast<std::uint32_t>(std::ceil(std::log2(
                                std::max<double>(4, double(keys.size())))))))))
            ,
        lg_s_(lg_exact(sorters_)),
        sA_(1 + lg_s_),
        sB_(sA_ + 1 + lg_s_),
        chunk_((n_ + p - 1) / p),
        state_(sorters_),
        output_(p) {
    if (p_ == 1) sorters_ = 1;
  }

  /// Every processor distributes keys at s0 and stores its output slice
  /// at sB+1; only the sorters act in between.
  [[nodiscard]] std::uint32_t participants(std::uint64_t superstep) const override {
    return superstep == 0 || superstep > sB_ ? p_ : sorters_;
  }

  bool step(engine::ProcContext& ctx) override;

  [[nodiscard]] bool verify() const {
    std::vector<engine::Word> expected(keys_);
    std::sort(expected.begin(), expected.end());
    std::vector<engine::Word> got;
    got.reserve(n_);
    for (const auto& part : output_) {
      got.insert(got.end(), part.begin(), part.end());
    }
    return got == expected;
  }

 private:
  struct SorterState {
    std::vector<engine::Word> keys;       // received keys, then sorted
    std::vector<engine::Word> gathered;   // all-gather sample pool, sorted
    std::vector<engine::Word> splitters;
    std::vector<engine::Word> bucket;     // this sorter's bucket, sorted
    std::vector<std::pair<std::uint32_t, std::uint64_t>> sizes;  // (sorter, n)
  };

  void send_staggered(engine::ProcContext& ctx, engine::ProcId dst,
                      engine::Word payload, std::uint64_t tag, std::uint32_t member,
                      std::uint64_t& counter, std::uint32_t group) {
    ctx.send(dst, payload, stagger_slot(member, counter++, group, m_), 1, tag);
  }

  const std::vector<engine::Word>& keys_;
  std::uint64_t n_;
  std::uint32_t p_;
  std::uint32_t m_;
  std::uint32_t samples_;
  std::uint32_t sorters_;
  std::uint32_t lg_s_;
  std::uint64_t sA_;
  std::uint64_t sB_;
  std::uint64_t chunk_;
  std::vector<SorterState> state_;
  std::vector<std::vector<engine::Word>> output_;
};

bool SampleSortProgram::step(engine::ProcContext& ctx) {
  const auto id = ctx.id();
  const auto s = ctx.superstep();

  if (p_ == 1) {  // trivial single-processor path
    if (s == 0) {
      output_[0] = keys_;
      std::sort(output_[0].begin(), output_[0].end());
      ctx.charge(static_cast<double>(n_) *
                 std::log2(std::max<double>(2, static_cast<double>(n_))));
    }
    return false;
  }

  if (s == 0) {
    // Distribute: proc id's k-th key (global index q) goes to sorter q % S.
    const std::uint64_t begin = static_cast<std::uint64_t>(id) * chunk_;
    const std::uint64_t end = std::min(begin + chunk_, n_);
    std::uint64_t counter = 0;
    for (std::uint64_t q = begin; q < end; ++q) {
      send_staggered(ctx, static_cast<engine::ProcId>(q % sorters_), keys_[q], 0,
                     id, counter, p_);
    }
    return true;
  }

  if (s > sB_) {  // sB+1: every processor stores its slice
    auto& out = output_[id];
    const std::uint64_t begin = static_cast<std::uint64_t>(id) * chunk_;
    const std::uint64_t end = std::min(begin + chunk_, n_);
    out.assign(end > begin ? end - begin : 0, 0);
    for (const auto& msg : ctx.inbox()) out.at(msg.tag - begin) = msg.payload;
    return false;
  }

  // Only the sorters step from s1 to sB (participants()).
  SorterState* st = &state_[id];

  if (s == 1) {
    for (const auto& msg : ctx.inbox()) st->keys.push_back(msg.payload);
    std::sort(st->keys.begin(), st->keys.end());
    ctx.charge(static_cast<double>(st->keys.size()) *
               std::log2(std::max<double>(2, double(st->keys.size()))));
    for (std::uint32_t t = 0; t < samples_; ++t) {
      st->gathered.push_back(
          st->keys.empty()
              ? 0
              : st->keys[ctx.rng().below(st->keys.size())]);
    }
    std::sort(st->gathered.begin(), st->gathered.end());
  }

  if (s < sA_) {
    // Sample all-gather round k = s - 1: merge what arrived (k > 0), then
    // send the whole pool to partner id ^ 2^k.
    if (s > 1) merge_pool(ctx, st->gathered);
    const auto partner = static_cast<engine::ProcId>(id ^ (1u << (s - 1)));
    std::uint64_t counter = 0;
    for (const engine::Word v : st->gathered) {
      send_staggered(ctx, partner, v, 0, id, counter, sorters_);
    }
    return true;
  }

  if (s == sA_) {
    merge_pool(ctx, st->gathered);
    ctx.charge(static_cast<double>(st->gathered.size()));
    // S-1 evenly spaced splitters; identical at every sorter.
    for (std::uint32_t j = 1; j < sorters_; ++j) {
      st->splitters.push_back(
          st->gathered[j * st->gathered.size() / sorters_]);
    }
    // Bucket exchange: key -> first bucket whose splitter exceeds it.
    std::uint64_t counter = 0;
    for (const engine::Word key : st->keys) {
      const auto bucket = static_cast<engine::ProcId>(
          std::upper_bound(st->splitters.begin(), st->splitters.end(), key) -
          st->splitters.begin());
      send_staggered(ctx, bucket, key, 0, id, counter, sorters_);
    }
    return true;
  }

  if (s < sB_) {
    if (s == sA_ + 1) {
      for (const auto& msg : ctx.inbox()) st->bucket.push_back(msg.payload);
      std::sort(st->bucket.begin(), st->bucket.end());
      ctx.charge(static_cast<double>(st->bucket.size()) *
                 std::log2(std::max<double>(2, double(st->bucket.size()))));
      st->sizes.emplace_back(id, st->bucket.size());
    } else {
      for (const auto& msg : ctx.inbox()) {
        st->sizes.emplace_back(static_cast<std::uint32_t>(msg.tag),
                               static_cast<std::uint64_t>(msg.payload));
      }
    }
    const auto round = static_cast<std::uint32_t>(s - (sA_ + 1));
    const auto partner = static_cast<engine::ProcId>(id ^ (1u << round));
    std::uint64_t counter = 0;
    for (const auto& [sorter, size] : st->sizes) {
      send_staggered(ctx, partner, static_cast<engine::Word>(size), sorter, id,
                     counter, sorters_);
    }
    return true;
  }

  // s == sB: the last round of sizes arrives.
  for (const auto& msg : ctx.inbox()) {
    st->sizes.emplace_back(static_cast<std::uint32_t>(msg.tag),
                           static_cast<std::uint64_t>(msg.payload));
  }
  std::uint64_t offset = 0;
  for (const auto& [sorter, size] : st->sizes) {
    if (sorter < id) offset += size;
  }
  // Final placement: key with global rank r goes to proc r / chunk,
  // tagged with its rank so the receiver can slot it in place.
  std::uint64_t counter = 0;
  for (std::size_t k = 0; k < st->bucket.size(); ++k) {
    const std::uint64_t rank = offset + k;
    send_staggered(ctx, static_cast<engine::ProcId>(rank / chunk_),
                   st->bucket[k], rank, id, counter, sorters_);
  }
  return true;
}

}  // namespace

AlgoResult sample_sort_bsp(const engine::CostModel& model,
                           const std::vector<engine::Word>& keys, std::uint32_t m,
                           std::uint32_t samples_per_sorter,
                           engine::MachineOptions options) {
  SampleSortProgram program(keys, model.processors(), m, samples_per_sorter);
  engine::Machine machine(model, options);
  const auto run = machine.run(program);
  return AlgoResult{run.total_time, run.supersteps, program.verify()};
}

}  // namespace pbw::algos
