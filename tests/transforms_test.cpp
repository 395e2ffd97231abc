#include "netlist/transforms.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "gen/generators.hpp"
#include "netlist/bench_io.hpp"
#include "sim/floating_sim.hpp"
#include "verify/verifier.hpp"

namespace waveck {
namespace {

/// Functional equivalence by exhaustive simulation of final values.
void expect_equivalent(const Circuit& a, const Circuit& b) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  ASSERT_LE(a.inputs().size(), 16u);
  const std::size_t n = a.inputs().size();
  std::vector<bool> v(n);
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    for (std::size_t i = 0; i < n; ++i) v[i] = (bits >> i) & 1;
    const auto ra = simulate_floating(a, v);
    const auto rb = simulate_floating(b, v);
    for (std::size_t o = 0; o < a.outputs().size(); ++o) {
      ASSERT_EQ(ra.value[a.outputs()[o].index()],
                rb.value[b.outputs()[o].index()])
          << "vector " << bits << " output " << o;
    }
  }
}

TEST(Transforms, NorMapC17Equivalent) {
  const Circuit raw = gen::c17();
  const Circuit mapped = map_to_nor(raw);
  for (GateId g : mapped.all_gates()) {
    EXPECT_EQ(mapped.gate(g).type, GateType::kNor);
  }
  expect_equivalent(raw, mapped);
}

TEST(Transforms, NorMapAllGateTypesEquivalent) {
  Circuit c("mix");
  const NetId a = c.add_net("a"), b = c.add_net("b"), s = c.add_net("s");
  c.declare_input(a);
  c.declare_input(b);
  c.declare_input(s);
  auto mk = [&](GateType t, const std::string& name, std::vector<NetId> ins) {
    const NetId o = c.add_net(name);
    c.add_gate(t, o, std::move(ins));
    c.declare_output(o);
    return o;
  };
  mk(GateType::kAnd, "o_and", {a, b});
  mk(GateType::kNand, "o_nand", {a, b});
  mk(GateType::kOr, "o_or", {a, b});
  mk(GateType::kNor, "o_nor", {a, b});
  mk(GateType::kXor, "o_xor", {a, b});
  mk(GateType::kXnor, "o_xnor", {a, b});
  mk(GateType::kNot, "o_not", {a});
  mk(GateType::kBuf, "o_buf", {a});
  mk(GateType::kDelay, "o_del", {b});
  mk(GateType::kMux, "o_mux", {s, a, b});
  c.finalize();
  const Circuit mapped = map_to_nor(c);
  for (GateId g : mapped.all_gates()) {
    EXPECT_EQ(mapped.gate(g).type, GateType::kNor);
  }
  expect_equivalent(c, mapped);
}

TEST(Transforms, NorMapWideGates) {
  Circuit c("wide");
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) {
    ins.push_back(c.add_net("i" + std::to_string(i)));
    c.declare_input(ins.back());
  }
  auto mk = [&](GateType t, const std::string& name) {
    const NetId o = c.add_net(name);
    c.add_gate(t, o, ins);
    c.declare_output(o);
  };
  mk(GateType::kAnd, "o_and");
  mk(GateType::kNand, "o_nand");
  mk(GateType::kXor, "o_xor");
  mk(GateType::kXnor, "o_xnor");
  c.finalize();
  expect_equivalent(c, map_to_nor(c));
}

TEST(Transforms, DecomposeWideXorEquivalent) {
  const Circuit raw = gen::parity_tree(9);
  Circuit wide("wide9");
  std::vector<NetId> ins;
  for (int i = 0; i < 9; ++i) {
    ins.push_back(wide.add_net("i" + std::to_string(i)));
    wide.declare_input(ins.back());
  }
  const NetId o = wide.add_net("o");
  wide.add_gate(GateType::kXor, o, ins);
  wide.declare_output(o);
  wide.finalize();
  const Circuit split = decompose_for_solver(wide);
  for (GateId g : split.all_gates()) {
    EXPECT_LE(split.gate(g).ins.size(), 2u);
  }
  expect_equivalent(wide, split);
  expect_equivalent(raw, split);
}

TEST(Transforms, DecomposeLowersMuxWhenAsked) {
  Circuit c("m");
  const NetId s = c.add_net("s"), a = c.add_net("a"), b = c.add_net("b");
  c.declare_input(s);
  c.declare_input(a);
  c.declare_input(b);
  const NetId o = c.add_net("o");
  c.add_gate(GateType::kMux, o, {s, a, b});
  c.declare_output(o);
  c.finalize();

  const Circuit kept = decompose_for_solver(c, {.lower_mux = false});
  EXPECT_EQ(histogram(kept).of(GateType::kMux), 1u);

  const Circuit lowered = decompose_for_solver(c, {.lower_mux = true});
  EXPECT_EQ(histogram(lowered).of(GateType::kMux), 0u);
  expect_equivalent(c, lowered);
}

TEST(Transforms, DecomposePreservesDelaysOnRoot) {
  Circuit c("d");
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) {
    ins.push_back(c.add_net("i" + std::to_string(i)));
    c.declare_input(ins.back());
  }
  const NetId o = c.add_net("o");
  c.add_gate(GateType::kXor, o, ins, DelaySpec::fixed(7));
  c.declare_output(o);
  c.finalize();
  const Circuit split = decompose_for_solver(c);
  const Gate& root = split.gate(split.net(*split.find_net("o")).driver);
  EXPECT_EQ(root.delay, DelaySpec::fixed(7));
}

// A one-input XOR or XNOR used to reach the solver's binary XOR projection,
// which read a second input past the end of its span.
TEST(Transforms, DecomposeRewritesOneInputXor) {
  for (const std::string type : {"XOR", "XNOR"}) {
    SCOPED_TRACE(type);
    const Circuit raw =
        read_bench_string("INPUT(a)\nOUTPUT(y)\ny = " + type + "(a)\n");
    const Circuit c = decompose_for_solver(raw);
    const NetId y = *c.find_net("y");
    const Gate& g = c.gate(c.net(y).driver);
    EXPECT_EQ(g.type, type == "XOR" ? GateType::kBuf : GateType::kNot);
    EXPECT_EQ(g.delay, raw.gate(raw.net(*raw.find_net("y")).driver).delay);
    expect_equivalent(raw, c);

    Verifier v(c);
    const auto res = v.exact_floating_delay();
    EXPECT_TRUE(res.exact);
    EXPECT_EQ(res.delay, exhaustive_floating_delay(raw));

    // The raw form is refused instead of read out of bounds.
    Verifier unsplit(raw);
    EXPECT_THROW((void)unsplit.check_output(*raw.find_net("y"), Time(0)),
                 std::invalid_argument);
  }
}

TEST(Transforms, Histogram) {
  const Circuit c = gen::c17();
  const GateHistogram h = histogram(c);
  EXPECT_EQ(h.of(GateType::kNand), 6u);
  EXPECT_EQ(h.total(), 6u);
}

}  // namespace
}  // namespace waveck
