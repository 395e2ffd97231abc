#include "analysis/learning.hpp"

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "netlist/transforms.hpp"

namespace waveck {
namespace {

bool implies(const ImplicationTable& t, NetId y, bool v, NetId x, bool w) {
  for (const auto& cons : t.of(y, v)) {
    if (cons.net == x && cons.cls == w) return true;
  }
  return false;
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
  EXPECT_TRUE(implies(res.table, y, false, a, true));
  EXPECT_TRUE(implies(res.table, y, false, b, true));
  EXPECT_TRUE(implies(res.table, y, false, x, true));
  // Forward: a=0 => x=0 => y=1.
  EXPECT_TRUE(implies(res.table, a, false, y, true));
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
  // a=0 => x=1, contrapositive x=0 => a=1 (also found directly here).
  EXPECT_TRUE(implies(res.table, a, false, x, true));
  EXPECT_TRUE(implies(res.table, x, false, a, true));
  EXPECT_GT(res.direct, 0u);
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

}  // namespace
}  // namespace waveck
