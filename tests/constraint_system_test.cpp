#include "constraints/constraint_system.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry.hpp"
#include "gen/generators.hpp"

namespace waveck {
namespace {

constexpr Time kNI = Time::neg_inf();

/// Two disjoint inverters a -> p and b -> q: a consequence on b schedules
/// only b's gate, so its reaching the fixpoint is visible on q.
Circuit two_inverters() {
  Circuit c("pair");
  const NetId a = c.add_net("a"), b = c.add_net("b");
  const NetId p = c.add_net("p"), q = c.add_net("q");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kNot, p, {a}, DelaySpec::fixed(5));
  c.add_gate(GateType::kNot, q, {b}, DelaySpec::fixed(5));
  c.declare_output(p);
  c.declare_output(q);
  c.finalize();
  return c;
}

Circuit and_not_chain() {
  Circuit c("chain");
  const NetId a = c.add_net("a"), b = c.add_net("b");
  const NetId x = c.add_net("x"), y = c.add_net("y");
  c.declare_input(a);
  c.declare_input(b);
  c.add_gate(GateType::kAnd, x, {a, b}, DelaySpec::fixed(5));
  c.add_gate(GateType::kNot, y, {x}, DelaySpec::fixed(5));
  c.declare_output(y);
  c.finalize();
  return c;
}

TEST(ConstraintSystem, InitialDomainsAreTop) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId n : c.all_nets()) {
    EXPECT_TRUE(cs.domain(n).is_top());
  }
  EXPECT_FALSE(cs.inconsistent());
}

TEST(ConstraintSystem, ForwardFixpointBoundsArrivals) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.schedule_all();
  EXPECT_EQ(cs.reach_fixpoint(),
            ConstraintSystem::Status::kPossibleViolation);
  const NetId y = *c.find_net("y");
  EXPECT_EQ(cs.domain(y).cls(false), LtInterval(kNI, Time(10)));
  EXPECT_EQ(cs.domain(y).cls(true), LtInterval(kNI, Time(10)));
}

TEST(ConstraintSystem, InfeasibleCheckDetected) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  // Output cannot transition at/after 11 (top = 10).
  cs.restrict_domain(*c.find_net("y"), AbstractSignal::violating(Time(11)));
  cs.schedule_all();
  EXPECT_EQ(cs.reach_fixpoint(), ConstraintSystem::Status::kNoViolation);
  EXPECT_TRUE(cs.inconsistent());
}

TEST(ConstraintSystem, FeasibleCheckStaysConsistent) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.restrict_domain(*c.find_net("y"), AbstractSignal::violating(Time(10)));
  cs.schedule_all();
  EXPECT_EQ(cs.reach_fixpoint(),
            ConstraintSystem::Status::kPossibleViolation);
}

TEST(ConstraintSystem, RestrictReturnsWhetherNarrowed) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  const NetId a = *c.find_net("a");
  EXPECT_TRUE(cs.restrict_domain(a, AbstractSignal::floating_input()));
  EXPECT_FALSE(cs.restrict_domain(a, AbstractSignal::floating_input()));
}

TEST(ConstraintSystem, TrailPushPopRestoresDomains) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.schedule_all();
  cs.reach_fixpoint();
  const NetId x = *c.find_net("x");
  const AbstractSignal before = cs.domain(x);

  const auto mark = cs.push_state();
  cs.restrict_domain(x, AbstractSignal::class_only(false));
  cs.reach_fixpoint();
  EXPECT_NE(cs.domain(x), before);
  cs.pop_to(mark);
  EXPECT_EQ(cs.domain(x), before);
  EXPECT_FALSE(cs.inconsistent());
}

TEST(ConstraintSystem, NestedPushPop) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  const NetId a = *c.find_net("a"), b = *c.find_net("b");

  const auto m1 = cs.push_state();
  cs.restrict_domain(a, AbstractSignal::class_only(true));
  const AbstractSignal a_at_1 = cs.domain(a);
  const auto m2 = cs.push_state();
  cs.restrict_domain(b, AbstractSignal::class_only(false));
  cs.restrict_domain(a, AbstractSignal::floating_input());
  cs.pop_to(m2);
  EXPECT_EQ(cs.domain(a), a_at_1);
  EXPECT_TRUE(cs.domain(b).is_top());
  cs.pop_to(m1);
  EXPECT_TRUE(cs.domain(a).is_top());
}

TEST(ConstraintSystem, PopRestoresInconsistency) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.schedule_all();
  cs.reach_fixpoint();
  const auto mark = cs.push_state();
  cs.restrict_domain(*c.find_net("y"), AbstractSignal::violating(Time(999)));
  cs.reach_fixpoint();
  EXPECT_TRUE(cs.inconsistent());
  cs.pop_to(mark);
  EXPECT_FALSE(cs.inconsistent());
}

TEST(ConstraintSystem, ChangedSinceListsTouchedNets) {
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  const auto mark = cs.push_state();
  cs.restrict_domain(*c.find_net("a"), AbstractSignal::class_only(true));
  cs.reach_fixpoint();
  const auto changed = cs.changed_since(mark);
  EXPECT_FALSE(changed.empty());
  bool has_a = false;
  for (NetId n : changed) has_a |= (n == *c.find_net("a"));
  EXPECT_TRUE(has_a);
}

TEST(ConstraintSystem, ClassPropagationThroughChain) {
  // a=0 forces x=0 forces y=1 (pure class reasoning, no timing).
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  cs.restrict_domain(*c.find_net("a"), AbstractSignal::class_only(false));
  cs.reach_fixpoint();
  EXPECT_TRUE(cs.domain(*c.find_net("x")).single_class());
  EXPECT_FALSE(cs.domain(*c.find_net("x")).the_class());
  EXPECT_TRUE(cs.domain(*c.find_net("y")).single_class());
  EXPECT_TRUE(cs.domain(*c.find_net("y")).the_class());
}

TEST(ConstraintSystem, BackwardClassPropagation) {
  // y=0 forces x=1 forces a=b=1.
  const Circuit c = and_not_chain();
  ConstraintSystem cs(c);
  cs.restrict_domain(*c.find_net("y"), AbstractSignal::class_only(false));
  cs.reach_fixpoint();
  EXPECT_TRUE(cs.domain(*c.find_net("a")).single_class());
  EXPECT_TRUE(cs.domain(*c.find_net("a")).the_class());
  EXPECT_TRUE(cs.domain(*c.find_net("b")).the_class());
}

TEST(ConstraintSystem, ImplicationTableFires) {
  const Circuit c = and_not_chain();
  ImplicationTable table;
  // Artificial implication: a=1 => b=0.
  table.add(*c.find_net("a"), true, *c.find_net("b"), false);
  ConstraintSystem cs(c);
  cs.set_implications(&table);
  cs.restrict_domain(*c.find_net("a"), AbstractSignal::class_only(true));
  EXPECT_TRUE(cs.domain(*c.find_net("b")).single_class());
  EXPECT_FALSE(cs.domain(*c.find_net("b")).the_class());
}

TEST(ConstraintSystem, SatisfiedConsequenceIsSkipped) {
  telemetry::Registry reg;
  const telemetry::ScopedRegistry scoped(reg);
  const Circuit c = two_inverters();
  const NetId a = *c.find_net("a"), b = *c.find_net("b");
  ImplicationTable table;
  table.add(a, true, b, false);
  ConstraintSystem cs(c);
  cs.set_implications(&table);
  cs.push_state();
  cs.restrict_domain(b, AbstractSignal::class_only(false));
  const std::size_t trail = cs.trail_size();
  const std::uint64_t narrowings = cs.narrowings();
  const std::uint64_t gen = cs.domain_generation();
  const AbstractSignal b_before = cs.domain(b);

  cs.restrict_domain(a, AbstractSignal::class_only(true));
  // Only a's own commit shows: the consequence b=0 already held.
  EXPECT_EQ(cs.trail_size(), trail + 1);
  EXPECT_EQ(cs.narrowings(), narrowings + 1);
  EXPECT_EQ(cs.domain_generation(), gen + 1);
  EXPECT_EQ(cs.domain(b), b_before);
  EXPECT_EQ(reg.counter("engine.implication_scans").value(), 1u);
  EXPECT_EQ(reg.counter("engine.implication_narrowings").value(), 0u);
}

TEST(ConstraintSystem, NarrowingConsequenceTrailsAndReschedules) {
  telemetry::Registry reg;
  const telemetry::ScopedRegistry scoped(reg);
  const Circuit c = two_inverters();
  const NetId a = *c.find_net("a"), b = *c.find_net("b");
  const NetId q = *c.find_net("q");
  ImplicationTable table;
  table.add(a, true, b, false);
  ConstraintSystem cs(c);
  cs.set_implications(&table);
  const auto mark = cs.push_state();
  cs.restrict_domain(a, AbstractSignal::class_only(true));
  ASSERT_EQ(cs.trail_size(), mark + 2);
  EXPECT_EQ(cs.trail_net(mark), a);
  EXPECT_EQ(cs.trail_net(mark + 1), b);
  EXPECT_TRUE(cs.domain(b).single_class());
  EXPECT_FALSE(cs.domain(b).the_class());
  EXPECT_EQ(reg.counter("engine.implication_scans").value(), 1u);
  EXPECT_EQ(reg.counter("engine.implication_narrowings").value(), 1u);
  // b's gate was scheduled by the consequence: the drain inverts b into q.
  EXPECT_TRUE(cs.domain(q).is_top());
  EXPECT_EQ(cs.reach_fixpoint(),
            ConstraintSystem::Status::kPossibleViolation);
  EXPECT_TRUE(cs.domain(q).single_class());
  EXPECT_TRUE(cs.domain(q).the_class());
}

TEST(ConstraintSystem, ConsequenceOntoBottomNetIsSkipped) {
  telemetry::Registry reg;
  const telemetry::ScopedRegistry scoped(reg);
  const Circuit c = two_inverters();
  const NetId a = *c.find_net("a"), b = *c.find_net("b");
  ImplicationTable table;
  table.add(a, true, b, false);
  ConstraintSystem cs(c);
  cs.set_implications(&table);
  cs.push_state();
  cs.restrict_domain(b, AbstractSignal::bottom());
  ASSERT_EQ(cs.bottom_count(), 1u);
  const std::size_t trail = cs.trail_size();
  const std::uint64_t narrowings = cs.narrowings();
  cs.restrict_domain(a, AbstractSignal::class_only(true));
  EXPECT_EQ(cs.trail_size(), trail + 1);
  EXPECT_EQ(cs.narrowings(), narrowings + 1);
  EXPECT_EQ(cs.bottom_count(), 1u);
  EXPECT_TRUE(cs.domain(b).is_bottom());
  EXPECT_EQ(reg.counter("engine.implication_narrowings").value(), 0u);
}

TEST(ConstraintSystem, ChainedImplicationsFireInInsertionOrder) {
  Circuit c("free");
  const NetId a = c.add_net("a"), b = c.add_net("b");
  const NetId d = c.add_net("d"), e = c.add_net("e");
  for (NetId n : {a, b, d, e}) {
    c.declare_input(n);
    c.declare_output(n);
  }
  c.finalize();
  ImplicationTable table;
  table.add(a, true, b, false);  // fires first, and chains into d
  table.add(a, true, e, true);
  table.add(b, false, d, true);
  ConstraintSystem cs(c);
  cs.set_implications(&table);
  const auto mark = cs.push_state();
  cs.restrict_domain(a, AbstractSignal::class_only(true));
  // Depth-first in list order: a, then b and its own consequence d, then e.
  ASSERT_EQ(cs.trail_size(), mark + 4);
  EXPECT_EQ(cs.trail_net(mark), a);
  EXPECT_EQ(cs.trail_net(mark + 1), b);
  EXPECT_EQ(cs.trail_net(mark + 2), d);
  EXPECT_EQ(cs.trail_net(mark + 3), e);
}

TEST(ConstraintSystem, ImplicationTableOfUnusedLiteralIsEmpty) {
  ImplicationTable table;
  EXPECT_TRUE(table.of(NetId{0u}, true).empty());
  table.add(NetId{3u}, true, NetId{1u}, false);
  EXPECT_EQ(table.of(NetId{3u}, true).size(), 1u);
  EXPECT_TRUE(table.of(NetId{3u}, false).empty());  // other class
  EXPECT_TRUE(table.of(NetId{1u}, false).empty());  // below the last literal
  EXPECT_TRUE(table.of(NetId{9u}, true).empty());   // beyond any entry
  EXPECT_EQ(table.size(), 1u);
}

TEST(ConstraintSystem, RejectsGateWiderThanProjectionLimit) {
  // project_gate takes at most 32 inputs; a parsed netlist can hold wider
  // gates, which the constructor must refuse rather than overrun.
  for (const std::size_t fanin : {32u, 33u}) {
    Circuit c("wide");
    std::vector<NetId> ins;
    for (std::size_t i = 0; i < fanin; ++i) {
      ins.push_back(c.add_net("i" + std::to_string(i)));
      c.declare_input(ins.back());
    }
    const NetId z = c.add_net("z");
    c.add_gate(GateType::kAnd, z, ins, DelaySpec::fixed(5));
    c.declare_output(z);
    c.finalize();
    if (fanin <= 32) {
      EXPECT_NO_THROW(ConstraintSystem{c});
    } else {
      EXPECT_THROW(ConstraintSystem{c}, std::invalid_argument);
    }
  }
}

TEST(ConstraintSystem, StatsAdvance) {
  const Circuit c = gen::hrapcenko();
  ConstraintSystem cs(c);
  for (NetId in : c.inputs()) {
    cs.restrict_domain(in, AbstractSignal::floating_input());
  }
  cs.schedule_all();
  cs.reach_fixpoint();
  EXPECT_GT(cs.applications(), 0u);
  EXPECT_GT(cs.narrowings(), 0u);
}

}  // namespace
}  // namespace waveck
