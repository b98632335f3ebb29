#include "algos/list_ranking.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "engine/error.hpp"
#include "engine/program.hpp"
#include "util/rng.hpp"

namespace pbw::algos {
namespace {

// Shared memory layout: seven arrays of n cells each.
//   next[v]   = 0*n + v     current successor (n = nil)
//   dist[v]   = 1*n + v     weighted distance to next (tail: 0)
//   coin[v]   = 2*n + v     this round's coin (1 = T, 0 = H)
//   sround[v] = 3*n + v     round at which v was spliced (-1 = live)
//   starg[v]  = 4*n + v     v's successor at splice time
//   sdist[v]  = 5*n + v     v's dist at splice time
//   rank[v]   = 6*n + v     output (-1 until resolved)
enum Field { kNext = 0, kDist, kCoin, kSround, kStarg, kSdist, kRank };

class ListRankProgram final : public engine::SuperstepProgram {
 public:
  ListRankProgram(const std::vector<std::uint32_t>& succ, std::uint32_t collectors,
                  std::uint32_t m)
      : succ_(succ),
        n_(static_cast<std::uint32_t>(succ.size())),
        c_(std::max(1u, std::min(collectors, n_))),
        m_(m),
        rounds_(static_cast<std::uint32_t>(
                    6.0 * std::log2(std::max<double>(n_, 2))) +
                12),
        owned_(c_),
        rank_(n_, -1) {
    for (std::uint32_t v = 0; v < n_; ++v) owned_[v % c_].push_back(v);
    state_.resize(c_);
    for (std::uint32_t j = 0; j < c_; ++j) {
      state_[j].resize(owned_[j].size());
    }
    splices_.resize(c_);
  }

  void setup(engine::Machine& machine) override {
    machine.resize_shared(7ull * n_, -1);
    for (std::uint32_t v = 0; v < n_; ++v) {
      machine.poke_shared(addr(kNext, v), succ_[v]);
      machine.poke_shared(addr(kDist, v), succ_[v] == n_ ? 0 : 1);
      machine.poke_shared(addr(kCoin, v), 1);  // T until first flip
    }
  }

  /// Only the c_ node owners act; the other processors would idle.
  [[nodiscard]] std::uint32_t participants(std::uint64_t /*superstep*/) const override {
    return c_;
  }

  bool step(engine::ProcContext& ctx) override {
    const auto s = ctx.superstep();
    if (s == 0) return true;
    return dispatch(ctx, ctx.id(), s);
  }

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::vector<engine::Word>& ranks() const { return rank_; }

 private:
  struct NodeState {
    enum Kind : std::uint8_t { kActive, kFinished, kDead } kind = kActive;
    std::uint32_t next = 0;
    std::uint32_t dist = 0;
    std::uint8_t coin = 1;
  };
  struct SpliceRec {
    std::uint32_t node;
    std::uint32_t target;  // n == nil
    std::uint32_t dist;
  };

  [[nodiscard]] engine::Addr addr(Field f, std::uint64_t v) const {
    return static_cast<engine::Addr>(f) * n_ + v;
  }
  [[nodiscard]] std::uint64_t last_superstep() const {
    // load(2) + rounds*3 + check(1) + unwind rounds*2 + final(1)
    return 2 + 3ull * (rounds_ + 1) + 1 + 2ull * (rounds_ + 1) + 1;
  }

  bool dispatch(engine::ProcContext& ctx, engine::ProcId id, std::uint64_t s);

  void phase_coin(engine::ProcContext& ctx, engine::ProcId id, std::uint32_t round);
  void phase_read(engine::ProcContext& ctx, engine::ProcId id);
  void phase_splice(engine::ProcContext& ctx, engine::ProcId id, std::uint32_t round);

  std::vector<std::uint32_t> succ_;
  std::uint32_t n_;
  std::uint32_t c_;
  std::uint32_t m_;
  std::uint32_t rounds_;
  std::vector<std::vector<std::uint32_t>> owned_;
  std::vector<std::vector<NodeState>> state_;
  // splices_[owner][round] = records learned for owned nodes.
  std::vector<std::vector<std::vector<SpliceRec>>> splices_;
  std::vector<engine::Word> rank_;
  std::atomic<bool> failed_{false};
};

bool ListRankProgram::dispatch(engine::ProcContext& ctx, engine::ProcId id,
                               std::uint64_t s) {
  auto& nodes = owned_[id];
  auto& st = state_[id];

  if (s == 1) {  // issue loads of next[v]
    std::uint64_t k = 0;
    for (std::uint32_t v : nodes) ctx.read(addr(kNext, v), stagger_slot(id, k++, c_, m_));
    return true;
  }
  if (s == 2) {  // consume loads; finish tails
    auto reads = ctx.reads();
    std::uint64_t k = 0, w = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      st[i].next = static_cast<std::uint32_t>(reads[k++]);
      st[i].dist = st[i].next == n_ ? 0 : 1;
      if (st[i].next == n_) {
        st[i].kind = NodeState::kFinished;
        rank_[nodes[i]] = 0;
        ctx.write(addr(kRank, nodes[i]), 0, stagger_slot(id, w++, c_, m_));
      }
      ctx.charge(1.0);
    }
    splices_[id].assign(rounds_ + 2, {});
    return true;
  }

  const std::uint64_t round_base = 3;
  const std::uint64_t total_rounds = rounds_ + 1;  // last round is no-splice
  if (s < round_base + 3 * total_rounds) {
    const auto round = static_cast<std::uint32_t>((s - round_base) / 3);
    switch ((s - round_base) % 3) {
      case 0: phase_coin(ctx, id, round); break;
      case 1: phase_read(ctx, id); break;
      case 2: phase_splice(ctx, id, round); break;
    }
    return true;
  }

  const std::uint64_t check = round_base + 3 * total_rounds;
  if (s == check) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (st[i].kind == NodeState::kActive) failed_ = true;
    }
    return true;
  }

  // Unwind: resolve splice rounds in reverse order, two supersteps each.
  const std::uint64_t unwind_base = check + 1;
  if (s < unwind_base + 2 * total_rounds) {
    const auto step_idx = s - unwind_base;
    const auto k = static_cast<std::uint32_t>(total_rounds - 1 - step_idx / 2);
    auto& recs = splices_[id][k];
    if (step_idx % 2 == 0) {  // read rank[target] for this round's records
      std::uint64_t q = 0;
      for (const auto& rec : recs) {
        if (rec.target != n_) {
          ctx.read(addr(kRank, rec.target), stagger_slot(id, q++, c_, m_));
        }
      }
      return true;
    }
    auto reads = ctx.reads();
    std::uint64_t q = 0, w = 0;
    for (const auto& rec : recs) {
      engine::Word base = 0;
      if (rec.target != n_) base = reads[q++];
      rank_[rec.node] = base + rec.dist;
      ctx.write(addr(kRank, rec.node), rank_[rec.node], stagger_slot(id, w++, c_, m_));
      ctx.charge(1.0);
    }
    return true;
  }
  return s < last_superstep();
}

void ListRankProgram::phase_coin(engine::ProcContext& ctx, engine::ProcId id,
                                 std::uint32_t round) {
  auto& nodes = owned_[id];
  auto& st = state_[id];
  const bool no_splice_round = round == rounds_;  // forced T: learn-only
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (st[i].kind != NodeState::kActive) continue;
    st[i].coin = no_splice_round ? 1 : static_cast<std::uint8_t>(ctx.rng().below(2));
    ctx.write(addr(kCoin, nodes[i]), st[i].coin, stagger_slot(id, w++, c_, m_));
    ctx.charge(1.0);
  }
}

void ListRankProgram::phase_read(engine::ProcContext& ctx, engine::ProcId id) {
  auto& nodes = owned_[id];
  auto& st = state_[id];
  std::uint64_t q = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (st[i].kind != NodeState::kActive) continue;
    // Learn whether we were spliced (and by extension our record).
    ctx.read(addr(kSround, nodes[i]), stagger_slot(id, q++, c_, m_));
    ctx.read(addr(kStarg, nodes[i]), stagger_slot(id, q++, c_, m_));
    ctx.read(addr(kSdist, nodes[i]), stagger_slot(id, q++, c_, m_));
    // Inspect our successor, if any.
    if (st[i].next != n_) {
      ctx.read(addr(kCoin, st[i].next), stagger_slot(id, q++, c_, m_));
      ctx.read(addr(kNext, st[i].next), stagger_slot(id, q++, c_, m_));
      ctx.read(addr(kDist, st[i].next), stagger_slot(id, q++, c_, m_));
    }
    ctx.charge(1.0);
  }
}

void ListRankProgram::phase_splice(engine::ProcContext& ctx, engine::ProcId id,
                                   std::uint32_t round) {
  auto& nodes = owned_[id];
  auto& st = state_[id];
  auto reads = ctx.reads();
  std::uint64_t q = 0, w = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (st[i].kind != NodeState::kActive) continue;
    const engine::Word sround = reads[q++];
    const engine::Word starg = reads[q++];
    const engine::Word sdist = reads[q++];
    engine::Word ucoin = 1, unext = 0, udist = 0;
    if (st[i].next != n_) {
      ucoin = reads[q++];
      unext = reads[q++];
      udist = reads[q++];
    }
    if (sround >= 0) {
      // We were spliced in a previous round; record and go dead.
      st[i].kind = NodeState::kDead;
      splices_[id][static_cast<std::size_t>(sround)].push_back(
          SpliceRec{nodes[i], static_cast<std::uint32_t>(starg),
                    static_cast<std::uint32_t>(sdist)});
      continue;
    }
    if (st[i].next == n_) continue;  // already finished elsewhere
    if (st[i].coin == 0 && ucoin == 1) {
      // Splice out u = next: absorb its distance, record its epitaph.
      const std::uint32_t u = st[i].next;
      ctx.write(addr(kSround, u), static_cast<engine::Word>(round),
                stagger_slot(id, w++, c_, m_));
      ctx.write(addr(kStarg, u), unext, stagger_slot(id, w++, c_, m_));
      ctx.write(addr(kSdist, u), udist, stagger_slot(id, w++, c_, m_));
      st[i].next = static_cast<std::uint32_t>(unext);
      st[i].dist += static_cast<std::uint32_t>(udist);
      ctx.write(addr(kNext, nodes[i]), st[i].next, stagger_slot(id, w++, c_, m_));
      ctx.write(addr(kDist, nodes[i]), st[i].dist, stagger_slot(id, w++, c_, m_));
      if (st[i].next == n_) {
        st[i].kind = NodeState::kFinished;
        rank_[nodes[i]] = st[i].dist;
        ctx.write(addr(kRank, nodes[i]), rank_[nodes[i]],
                  stagger_slot(id, w++, c_, m_));
        ctx.write(addr(kCoin, nodes[i]), 1, stagger_slot(id, w++, c_, m_));
      }
      ctx.charge(1.0);
    }
  }
}

}  // namespace

AlgoResult list_rank_qsm(const engine::CostModel& model,
                         const std::vector<std::uint32_t>& succ,
                         std::uint32_t collectors, std::uint32_t m,
                         engine::MachineOptions options) {
  ListRankProgram program(succ, collectors, m);
  engine::Machine machine(model, options);
  const auto run = machine.run(program);
  bool correct = !program.failed();
  if (correct) {
    const auto reference = rank_reference(succ);
    for (std::uint32_t v = 0; v < succ.size(); ++v) {
      if (program.ranks()[v] != static_cast<engine::Word>(reference[v])) {
        correct = false;
        break;
      }
    }
  }
  return AlgoResult{run.total_time, run.supersteps, correct};
}

std::vector<std::uint32_t> random_list(std::uint32_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  util::Xoshiro256 rng(seed);
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<std::uint32_t> succ(n, n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) succ[order[i]] = order[i + 1];
  if (n > 0) succ[order[n - 1]] = n;
  return succ;
}

std::vector<std::uint32_t> rank_reference(const std::vector<std::uint32_t>& succ) {
  const auto n = static_cast<std::uint32_t>(succ.size());
  // Find the head (no predecessor), then walk.
  std::vector<bool> has_pred(n, false);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (succ[v] != n) has_pred[succ[v]] = true;
  }
  std::uint32_t head = n;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!has_pred[v]) {
      head = v;
      break;
    }
  }
  std::vector<std::uint32_t> rank(n, 0);
  std::uint32_t r = n;
  for (std::uint32_t v = head; v != n; v = succ[v]) rank[v] = --r;
  return rank;
}

}  // namespace pbw::algos
