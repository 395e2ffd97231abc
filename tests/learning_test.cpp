#include "analysis/learning.hpp"

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "netlist/transforms.hpp"

namespace waveck {
namespace {

bool implies(const ImplicationTable& t, NetId y, bool v, NetId x, bool w) {
  for (const auto& cons : t.of(y, v)) {
    if (cons.net == x && cons.cls == w) return true;
  }
  return false;
}

/// True iff restricting y = v on a system that carries `t` reaches a
/// consistent fixpoint with x forced to class w.
bool fixpoint_forces(const Circuit& c, const ImplicationTable& t, NetId y,
                     bool v, NetId x, bool w) {
  ConstraintSystem cs(c);
  cs.set_implications(&t);
  cs.restrict_domain(y, AbstractSignal::class_only(v));
  if (cs.reach_fixpoint() != ConstraintSystem::Status::kPossibleViolation) {
    return false;
  }
  const AbstractSignal d = cs.domain(x);
  return d.single_class() && d.the_class() == w;
}

TEST(Learning, ChainImplications) {
  // y = NOT(AND(a, b)): y=0 => a=1 and b=1.
  Circuit c("chain");
  const NetId a = c.add_net("a"), b = c.add_net("b");
  const NetId x = c.add_net("x"), y = c.add_net("y");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kAnd, x, {a, b});
  c.add_gate(GateType::kNot, y, {x});
  c.declare_output(y);
  c.finalize();

  const LearningResult res = learn_implications(c);
  // Every one is found by propagation, so the fixpoint derives it and the
  // table need not hold it.
  EXPECT_TRUE(fixpoint_forces(c, res.table, y, false, a, true));
  EXPECT_TRUE(fixpoint_forces(c, res.table, y, false, b, true));
  EXPECT_TRUE(fixpoint_forces(c, res.table, y, false, x, true));
  // Forward: a=0 => x=0 => y=1.
  EXPECT_TRUE(fixpoint_forces(c, res.table, a, false, y, true));
  EXPECT_FALSE(implies(res.table, y, false, a, true));
  EXPECT_FALSE(implies(res.table, y, false, b, true));
  EXPECT_FALSE(implies(res.table, y, false, x, true));
  EXPECT_FALSE(implies(res.table, a, false, y, true));
  EXPECT_GT(res.direct, 0u);
  EXPECT_TRUE(res.impossible.empty());
}

TEST(Learning, ContrapositivesRecorded) {
  Circuit c("c");
  const NetId a = c.add_net("a"), x = c.add_net("x");
  c.declare_input(a);
  c.add_gate(GateType::kNot, x, {a});
  c.declare_output(x);
  c.finalize();
  const LearningResult res = learn_implications(c);
  // a=0 => x=1 and its contrapositive x=0 => a=1 are both local: the
  // fixpoint forces them, so neither is recorded.
  EXPECT_TRUE(fixpoint_forces(c, res.table, a, false, x, true));
  EXPECT_TRUE(fixpoint_forces(c, res.table, x, false, a, true));
  EXPECT_FALSE(implies(res.table, a, false, x, true));
  EXPECT_FALSE(implies(res.table, x, false, a, true));
  EXPECT_EQ(res.direct, 4u);  // a=0, a=1, x=0, x=1: one consequence each
  EXPECT_EQ(res.contrapositive, 0u);
  EXPECT_EQ(res.table.size(), 0u);
}

TEST(Learning, ConstantNetClassImpossible) {
  // x = AND(a, NOT a) is constant 0: class 1 is impossible.
  Circuit c("const0");
  const NetId a = c.add_net("a"), na = c.add_net("na"), x = c.add_net("x");
  c.declare_input(a);
  c.add_gate(GateType::kNot, na, {a});
  c.add_gate(GateType::kAnd, x, {a, na});
  c.declare_output(x);
  c.finalize();
  const LearningResult res = learn_implications(c);
  bool found = false;
  for (const auto& [net, cls] : res.impossible) {
    found |= (net == x && cls == true);
  }
  EXPECT_TRUE(found);
}

TEST(Learning, NonLocalImplicationThroughReconvergence) {
  // The SOCRATES classic: z = AND(a, b) OR AND(a, c) ... z=1 => a=1 is
  // non-local (needs the OR's case split); the contrapositive a=0 => z=0 IS
  // local, so learning must expose z=1 => a=1 via contrapositive storage.
  Circuit c("socrates");
  const NetId a = c.add_net("a"), b = c.add_net("b"), d = c.add_net("d");
  const NetId x = c.add_net("x"), y = c.add_net("y"), z = c.add_net("z");
  c.declare_input(a);
  c.declare_input(b);
  c.declare_input(d);
  c.add_gate(GateType::kAnd, x, {a, b});
  c.add_gate(GateType::kAnd, y, {a, d});
  c.add_gate(GateType::kOr, z, {x, y});
  c.declare_output(z);
  c.finalize();
  const LearningResult res = learn_implications(c);
  EXPECT_TRUE(implies(res.table, z, true, a, true));
}

TEST(Learning, ConsequencesKeepAddOrder) {
  // The consequence order is the order commit_domain applies them (and so
  // the trail order): of() must hand them back exactly as added.
  ImplicationTable t;
  const NetId y{2u}, x0{5u}, x1{0u}, x2{7u};
  t.add(y, true, x0, false);
  t.add(x1, false, y, true);  // another literal in between
  t.add(y, true, x1, true);
  t.add(y, false, x2, true);
  t.add(y, true, x2, false);
  const auto cons = t.of(y, true);
  ASSERT_EQ(cons.size(), 3u);
  EXPECT_EQ(cons[0].net, x0);
  EXPECT_FALSE(cons[0].cls);
  EXPECT_EQ(cons[1].net, x1);
  EXPECT_TRUE(cons[1].cls);
  EXPECT_EQ(cons[2].net, x2);
  EXPECT_FALSE(cons[2].cls);
  EXPECT_EQ(t.size(), 5u);

  // A learned table partitions its entries over the literals.
  const Circuit c = map_to_nor(gen::c17());
  const LearningResult res = learn_implications(c);
  std::size_t total = 0;
  for (NetId n : c.all_nets()) {
    total += res.table.of(n, false).size() + res.table.of(n, true).size();
  }
  EXPECT_EQ(total, res.table.size());
}

TEST(Learning, SizeGuardSkipsHugeCircuits) {
  const Circuit c = gen::c17();
  LearningOptions opt;
  opt.max_nets = 1;  // force skip
  const LearningResult res = learn_implications(c, opt);
  EXPECT_EQ(res.table.size(), 0u);
}

TEST(Learning, NorMappedC17HasImplications) {
  const Circuit c = map_to_nor(gen::c17());
  const LearningResult res = learn_implications(c);
  EXPECT_GT(res.table.size(), 0u);
}

TEST(Learning, CapKeepsContrapositivesOfUnbuiltRows) {
  // x = NOT a. Uncapped, both directions are derivable and nothing is
  // stored. Capped at one consequence, only literal a=0 is propagated:
  // its consequence x=1 has the contrapositive x=0 => a=1, whose own row
  // was never built, so it cannot be shown derivable and is kept.
  Circuit c("inv");
  const NetId a = c.add_net("a"), x = c.add_net("x");
  c.declare_input(a);
  c.add_gate(GateType::kNot, x, {a});
  c.declare_output(x);
  c.finalize();
  EXPECT_EQ(learn_implications(c).table.size(), 0u);

  LearningOptions opt;
  opt.max_implications = 1;
  const LearningResult res = learn_implications(c, opt);
  EXPECT_EQ(res.direct, 1u);
  ASSERT_EQ(res.table.size(), 1u);
  EXPECT_TRUE(implies(res.table, x, false, a, true));
  EXPECT_TRUE(fixpoint_forces(c, res.table, x, false, a, true));
}

/// Learning without shortcuts: every literal y=v propagated from top, its
/// row the set of (x, w) codes 2x+w that collapsed.
struct PlainRows {
  std::vector<std::set<std::uint32_t>> rows;  // by literal 2y+v
  std::vector<std::pair<NetId, bool>> impossible;
};

PlainRows plain_rows(const Circuit& c) {
  PlainRows out;
  out.rows.resize(2 * c.num_nets());
  ConstraintSystem cs(c);
  for (NetId y : c.all_nets()) {
    for (const bool v : {false, true}) {
      const auto mark = cs.push_state();
      cs.restrict_domain(y, AbstractSignal::class_only(v));
      if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
        out.impossible.emplace_back(y, v);
      } else {
        for (NetId x : cs.changed_since(mark)) {
          const AbstractSignal d = cs.domain(x);
          if (x == y || !d.single_class()) continue;
          out.rows[2 * y.value() + v].insert(2 * x.value() + d.the_class());
        }
      }
      cs.pop_to(mark);
    }
  }
  return out;
}

/// The rule learning used before it dropped derivable entries: every
/// consequence found by propagation plus every contrapositive, deduplicated.
ImplicationTable full_table(const Circuit& c) {
  const PlainRows plain = plain_rows(c);
  ImplicationTable t;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  const auto add = [&](std::uint32_t ante, std::uint32_t cons) {
    if (seen.emplace(ante, cons).second) {
      t.add(NetId{ante >> 1}, ante & 1, NetId{cons >> 1}, cons & 1);
    }
  };
  for (std::uint32_t lit = 0; lit < plain.rows.size(); ++lit) {
    for (const std::uint32_t cons : plain.rows[lit]) {
      add(lit, cons);
      add(cons ^ 1, lit ^ 1);
    }
  }
  return t;
}

/// (antecedent, consequent) literal codes of every entry of `t`.
std::set<std::pair<std::uint32_t, std::uint32_t>> entries_of(
    const Circuit& c, const ImplicationTable& t) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> out;
  for (NetId n : c.all_nets()) {
    for (const bool v : {false, true}) {
      for (const auto& cons : t.of(n, v)) {
        out.emplace(2 * n.value() + v, 2 * cons.net.value() + cons.cls);
      }
    }
  }
  return out;
}

/// learn_implications, with its row copies and its transposed pass 2, must
/// store exactly the contrapositives that plain propagation does not find,
/// and report the same consequence count and impossible classes.
void expect_exact_table(const Circuit& c) {
  const PlainRows plain = plain_rows(c);
  std::set<std::pair<std::uint32_t, std::uint32_t>> want;
  std::size_t found = 0;
  for (std::uint32_t lit = 0; lit < plain.rows.size(); ++lit) {
    found += plain.rows[lit].size();
    for (const std::uint32_t cons : plain.rows[lit]) {
      if (plain.rows[cons ^ 1].count(lit ^ 1) == 0) {
        want.emplace(cons ^ 1, lit ^ 1);
      }
    }
  }
  const LearningResult res = learn_implications(c);
  EXPECT_EQ(entries_of(c, res.table), want) << c.name();
  EXPECT_EQ(res.table.size(), want.size()) << c.name();
  EXPECT_EQ(res.direct, found) << c.name();
  EXPECT_EQ(res.impossible, plain.impossible) << c.name();
}

TEST(LearningEquivalence, StoresExactlyTheNonDerivableContrapositives) {
  // Every kind of gate the solver takes with one input (XOR and XNOR need
  // two), chained, so rows are copied across each.
  Circuit chain("unary_chain");
  NetId prev = chain.add_net("a");
  chain.declare_input(prev);
  const NetId b = chain.add_net("b");
  chain.declare_input(b);
  int k = 0;
  for (GateType t : {GateType::kNot, GateType::kBuf, GateType::kDelay,
                     GateType::kAnd, GateType::kNand, GateType::kOr,
                     GateType::kNor}) {
    const std::string id = std::to_string(k++);
    const NetId out = chain.add_net("u" + id);
    chain.add_gate(t, out, {prev});
    const NetId side = chain.add_net("s" + id);
    chain.add_gate(GateType::kAnd, side, {out, b});
    chain.declare_output(side);
    prev = out;
  }
  chain.declare_output(prev);
  chain.finalize();
  expect_exact_table(chain);

  expect_exact_table(map_to_nor(gen::c17()));
  for (const char* name : {"c432", "c499", "c880", "c2670"}) {
    expect_exact_table(gen::prepare_for_experiment(gen::build_raw(name)));
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    gen::StructuredCircuitConfig cfg;
    cfg.seed = seed;
    cfg.gates = 30 + static_cast<unsigned>(4 * seed);
    cfg.w_not = 4;
    cfg.w_buf = 3;
    cfg.false_path_blocks = static_cast<unsigned>(seed % 3);
    cfg.delay_intervals = seed % 2 == 0;
    expect_exact_table(gen::structured_random_circuit(cfg));
  }
}

/// Seeded random push / restrict / pop sequences on two systems, one with
/// each table: every fixpoint must agree on the status and, when
/// consistent, on every net's domain.
void expect_same_fixpoints(const Circuit& c, std::uint64_t seed, int steps) {
  const LearningResult learned = learn_implications(c);
  const ImplicationTable full = full_table(c);
  ASSERT_LE(learned.table.size(), full.size()) << c.name();

  ConstraintSystem a(c), b(c);
  a.set_implications(&learned.table);
  b.set_implications(&full);
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto same_fixpoint = [&](const char* what) {
    const auto sa = a.reach_fixpoint();
    const auto sb = b.reach_fixpoint();
    EXPECT_EQ(sa, sb) << c.name() << " seed " << seed << " " << what;
    if (sa != sb || sa != ConstraintSystem::Status::kPossibleViolation) {
      return false;
    }
    for (NetId n : c.all_nets()) {
      if (!(a.domain(n) == b.domain(n))) {
        ADD_FAILURE() << c.name() << " seed " << seed << " " << what
                      << ": net " << c.net(n).name << " "
                      << a.domain(n).str() << " vs " << b.domain(n).str();
        return false;
      }
    }
    return true;
  };

  if (pick(2) == 0) {
    for (NetId in : c.inputs()) {
      a.restrict_domain(in, AbstractSignal::floating_input());
      b.restrict_domain(in, AbstractSignal::floating_input());
    }
  }
  a.schedule_all();
  b.schedule_all();
  if (!same_fixpoint("initial")) return;

  std::vector<ConstraintSystem::Mark> marks;
  for (int step = 0; step < steps; ++step) {
    if (!marks.empty() && pick(3) == 0) {
      a.pop_to(marks.back());
      b.pop_to(marks.back());
      marks.pop_back();
      continue;
    }
    marks.push_back(a.push_state());
    ASSERT_EQ(b.push_state(), marks.back());
    const NetId n{pick(c.num_nets())};
    const AbstractSignal r =
        pick(4) == 0 ? AbstractSignal::violating(Time(
                           static_cast<std::int64_t>(pick(400))))
                     : AbstractSignal::class_only(pick(2) == 1);
    a.restrict_domain(n, r);
    b.restrict_domain(n, r);
    if (!same_fixpoint("step")) {
      if (::testing::Test::HasFailure()) return;
      // A conflict: both stopped at their first empty domain, which may
      // differ. Undo the step on both.
      a.pop_to(marks.back());
      b.pop_to(marks.back());
      marks.pop_back();
    }
  }
}

TEST(LearningEquivalence, DroppedEntriesLeaveEveryFixpointUnchanged) {
  expect_same_fixpoints(map_to_nor(gen::c17()), 1, 200);
  expect_same_fixpoints(gen::prepare_for_experiment(gen::build_raw("c432")),
                        2, 300);
  expect_same_fixpoints(gen::prepare_for_experiment(gen::build_raw("c880")),
                        3, 300);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    gen::StructuredCircuitConfig cfg;
    cfg.seed = seed;
    cfg.inputs = 6 + static_cast<unsigned>(seed % 5);
    cfg.gates = 30 + static_cast<unsigned>(4 * seed);
    cfg.false_path_blocks = static_cast<unsigned>(seed % 3);
    cfg.delay_intervals = seed % 2 == 0;
    expect_same_fixpoints(gen::structured_random_circuit(cfg), seed, 300);
  }
}

}  // namespace
}  // namespace waveck
