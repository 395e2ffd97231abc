#include "analysis/learning.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace waveck {
namespace {

// A literal (net n, class v) is coded 2n + v, so its negation is code ^ 1.
constexpr std::uint32_t kNoLiteral = ~std::uint32_t{0};

std::uint32_t literal(NetId n, bool v) {
  return (n.value() << 1) | (v ? 1 : 0);
}
NetId net_of(std::uint32_t lit) { return NetId{lit >> 1}; }
bool class_of(std::uint32_t lit) { return (lit & 1) != 0; }

/// The literal of x equal to y = v when y is driven by a one-input gate over
/// x (every such gate computes x or !x), else kNoLiteral.
std::uint32_t driver_literal(const Circuit& c, NetId y, bool v) {
  const GateId g = c.net(y).driver;
  if (!g.valid() || c.gate(g).ins.size() != 1) return kNoLiteral;
  return literal(c.gate(g).ins[0], v != inversion(c.gate(g).type));
}

/// Appends the CSR row [begin, end) again, with `ante` replaced by `src`.
/// Returns false, appending nothing, when the row does not hold `ante`.
bool append_renamed_row(std::vector<std::uint32_t>& entries,
                        std::size_t begin, std::size_t end, std::uint32_t src,
                        std::uint32_t ante) {
  const auto first = entries.begin() + begin;
  const auto self = std::find(first, entries.begin() + end, ante);
  if (self == entries.begin() + end) return false;
  const std::size_t at = entries.size() + (self - first);
  entries.resize(entries.size() + (end - begin));
  std::copy_n(entries.begin() + begin, end - begin,
              entries.end() - (end - begin));
  entries[at] = src;
  return true;
}

}  // namespace

LearningResult learn_implications(const Circuit& c,
                                  const LearningOptions& opt) {
  LearningResult res;
  if (c.num_nets() > opt.max_nets) return res;

  // Pass 1: the consequences of literal L are row L of one CSR array,
  // entries [row[L], row[L+1]). A net enters a decision level's trail once,
  // so a row needs no dedup.
  const std::size_t literals = 2 * c.num_nets();
  std::vector<std::uint32_t> entries;
  std::vector<std::uint32_t> row{0};
  row.reserve(literals + 1);
  std::vector<std::uint8_t> impossible(literals, 0);
  ConstraintSystem cs(c);
  const SoaDomain& planes = cs.soa();
  while (row.size() <= literals && entries.size() < opt.max_implications) {
    const auto ante = static_cast<std::uint32_t>(row.size() - 1);
    const NetId y = net_of(ante);
    // Half the nets of a NOR-mapped circuit are inverter outputs. Asserting
    // y = v or the equal literal `src` of its gate input forces the other
    // through that gate, and the drain then starts from one state with the
    // same gates queued: one fixpoint. So a built row of src is copied.
    const std::uint32_t src = driver_literal(c, y, class_of(ante));
    if (src < ante && impossible[src] != 0) {
      impossible[ante] = 1;
    } else if (src >= ante ||
               !append_renamed_row(entries, row[src], row[src + 1], src,
                                   ante)) {
      const auto mark = cs.push_state();
      cs.restrict_domain(y, AbstractSignal::class_only(class_of(ante)));
      if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
        impossible[ante] = 1;
      } else {
        // Only nets touched by the propagation can have collapsed; the
        // trail suffix is read in place. (y itself collapsed trivially.)
        for (std::size_t i = mark; i < cs.trail_size(); ++i) {
          const NetId x = cs.trail_net(i);
          const bool no0 = planes.cls_empty(x.index(), 0);
          if (x != y && no0 != planes.cls_empty(x.index(), 1)) {
            entries.push_back(literal(x, no0));
          }
        }
      }
      cs.pop_to(mark);
    }
    if (impossible[ante] != 0) res.impossible.emplace_back(y, class_of(ante));
    row.push_back(static_cast<std::uint32_t>(entries.size()));
  }
  const std::size_t built = row.size() - 1;

  // Pass 2: the contrapositive of (y=v) => (x=w) is (x=!w) => (y=!v). It is
  // stored unless propagating x=!w already collapsed y to !v. The transpose
  // lists, per literal x=w, every y=v whose row holds it; stamping row x=!w
  // first makes each test one array read. A row past the cap was never
  // built, so nothing is stamped and its contrapositives are kept.
  std::vector<std::uint32_t> holders_of(literals + 1, 0);
  for (const std::uint32_t e : entries) ++holders_of[e + 1];
  std::partial_sum(holders_of.begin(), holders_of.end(), holders_of.begin());
  std::vector<std::uint32_t> holders(entries.size());
  {
    std::vector<std::uint32_t> fill(holders_of.begin(), holders_of.end() - 1);
    for (std::uint32_t a = 0; a < built; ++a) {
      for (std::uint32_t k = row[a]; k < row[a + 1]; ++k) {
        holders[fill[entries[k]]++] = a;
      }
    }
  }
  std::vector<std::uint32_t> stamp(literals, kNoLiteral);
  for (std::uint32_t ante = 0; ante < literals; ++ante) {
    const std::uint32_t neg = ante ^ 1;
    if (ante < built) {
      for (std::uint32_t k = row[ante]; k < row[ante + 1]; ++k) {
        stamp[entries[k]] = ante;
      }
    }
    for (std::uint32_t k = holders_of[neg]; k < holders_of[neg + 1]; ++k) {
      const std::uint32_t cons = holders[k] ^ 1;
      if (stamp[cons] != ante) {
        res.table.add(net_of(ante), class_of(ante), net_of(cons),
                      class_of(cons));
      }
    }
  }
  res.direct = entries.size();
  res.contrapositive = res.table.size();
  return res;
}

}  // namespace waveck
