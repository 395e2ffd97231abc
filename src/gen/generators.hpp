// Benchmark circuit generators.
//
// The paper evaluates NOR-gate implementations of the ISCAS'85 suite plus
// two didactic circuits (the Hrapcenko false-path chain of Figure 1 and the
// carry-skip adder of Figure 2). The original ISCAS'85 netlists cannot be
// bundled here (offline workspace); instead `c17()` is embedded verbatim
// (it is printed in the ISCAS'85 paper itself) and the other circuits are
// generated from their documented architectures at comparable size -- see
// DESIGN.md "Substitutions". `iscas_suite.hpp` assembles the Table-1 suite.
#pragma once

#include <cstdint>

#include "netlist/circuit.hpp"

namespace waveck::gen {

/// The 8-gate false-path circuit of the paper's Figure 1 / Example 2
/// (Hrapcenko's construction): topological delay 70, floating delay 60 at
/// 10 units per gate. The path n1,g2,...,g8,s is false because input e3
/// must be non-controlling at both g2 (an AND) and g6 (an OR).
[[nodiscard]] Circuit hrapcenko(std::int64_t gate_delay = 10);

/// ISCAS'85 c17, verbatim (6 NAND gates, 5 inputs, 2 outputs).
[[nodiscard]] Circuit c17();

/// Ripple-carry adder: inputs a0..a{n-1}, b0..b{n-1}, cin; outputs
/// s0..s{n-1}, cout.
[[nodiscard]] Circuit ripple_carry_adder(unsigned bits);

/// Carry-skip adder (paper Figure 2): ripple blocks of `block` bits with an
/// AND-of-propagates skip path OR-ed into each block's carry-out. The
/// block-to-block ripple chain is the classic false path: with all
/// propagates true the skip settles the carry first.
[[nodiscard]] Circuit carry_skip_adder(unsigned bits, unsigned block);

/// Carry-select adder: each block is computed twice (carry-in 0 and 1) and
/// the block carry selects the results -- another classic false-path-rich
/// structure (the unselected block's ripple never reaches the output).
[[nodiscard]] Circuit carry_select_adder(unsigned bits, unsigned block);

/// Kogge-Stone parallel-prefix adder: log-depth, no intentional false
/// paths; the control sample of the adder-family study.
[[nodiscard]] Circuit kogge_stone_adder(unsigned bits);

/// Wallace-tree multiplier: 3:2 compression of the partial products, then a
/// ripple carry-propagate row (log-depth reduction vs the array's linear
/// rows).
[[nodiscard]] Circuit wallace_multiplier(unsigned bits);

/// n x n carry-save array multiplier (the c6288 architecture: c6288 is a
/// 16x16 array multiplier of 240 adder cells). With `skip_final_adder` the
/// final carry-propagate row is a carry-skip adder (blocks of 4) -- a
/// standard fast-multiplier structure that makes the upper product bits'
/// full-ripple paths false.
[[nodiscard]] Circuit array_multiplier(unsigned bits,
                                       bool skip_final_adder = false);

/// Single-error-correcting (Hamming) circuit over `data` bits: inputs are
/// data plus received check bits; outputs the corrected word. This is the
/// c499/c1355 architecture (32-bit SEC). With `double_error_detect` a
/// SEC/DED overall-parity stage is added (the c1908 architecture, 16-bit).
[[nodiscard]] Circuit ecc_corrector(unsigned data, bool double_error_detect);

/// Simple ALU: two `width`-bit operands, 2-bit opcode (ADD / AND / OR /
/// XOR), optional subtract stage and zero/overflow flags. c880/c2670/c3540/
/// c5315-class structure (adders + logic + output selection).
struct AluConfig {
  unsigned width = 8;
  bool with_subtract = true;
  bool with_flags = true;
  bool with_parity = false;
};
[[nodiscard]] Circuit alu(const AluConfig& cfg);

/// Priority/interrupt controller in the c432 style: `lines` request lines
/// per bus, 3 buses, bus-priority resolution and per-line grant outputs
/// (c432 is a 27-channel interrupt controller: 3 x 9 lines).
[[nodiscard]] Circuit priority_controller(unsigned lines = 9);

/// 32-bit-adder-plus-magnitude-comparator block (c7552-class datapath).
[[nodiscard]] Circuit adder_comparator(unsigned width);

/// Balanced XOR parity tree over n inputs.
[[nodiscard]] Circuit parity_tree(unsigned inputs);

/// The three textbook false-path idioms, as appendable "mode-gated bypass"
/// blocks. Each adds one output whose topological delay exceeds the host's
/// but whose floating delay does not reach it; they differ in which
/// machinery can *prove* that (the paper's Table 1 stage profiles):
enum class FalsePathKind {
  /// Single chain gated by a mode signal with contradictory polarities at
  /// entry and exit (Hrapcenko/Example-2 mechanics): backward narrowing is
  /// unambiguous, so the plain fixpoint closes it (paper's c5315/c7552).
  kLocalChain,
  /// The same contradiction hidden behind an XOR-reconvergent diamond: the
  /// diamond's sibling coverage stalls local narrowing in both classes, but
  /// the diamond source dominates every long path, so the dynamic-dominator
  /// implication (Corollary 1) pushes the last-transition requirement
  /// through and closes it (paper's c1908/c3540).
  kDominatorDiamond,
  /// Two parallel chains with opposite gating polarities merged by an OR:
  /// no dominator beyond the output exists and narrowing is ambiguous, but
  /// splitting the mode stem refutes both classes (paper's c2670/c6288).
  kStemContradiction,
};

/// Appends a false-path block of `kind` to a finalized circuit (the circuit
/// is re-finalized). The block is driven by the first primary input (the
/// "mode" signal) and, for the first two kinds, by the host's deepest
/// output net, so the false path runs through the host logic. `stages`
/// DELAY elements set the chain length (pick >= host depth in gates so the
/// block's path is the critical one). The new output is `<prefix>_out`.
void append_false_path_block(Circuit& c, FalsePathKind kind, unsigned stages,
                             const std::string& prefix = "fp");

/// Deterministic pseudo-random DAG circuit (for property tests): `nets`
/// internal gates over `inputs` inputs, gate types drawn from the basic
/// alphabet, fanin 1..3. Same seed => same circuit.
struct RandomCircuitConfig {
  unsigned inputs = 8;
  unsigned gates = 30;
  unsigned outputs = 4;
  std::uint64_t seed = 1;
  bool with_xor = true;
  bool with_mux = false;
};
[[nodiscard]] Circuit random_circuit(const RandomCircuitConfig& cfg);

/// Structure-aware random circuit generator (the differential fuzzer's
/// workhorse; see doc/TESTING.md). Unlike `random_circuit` it controls the
/// *shape* of the DAG, which is what the verifier's stages actually key on:
///  * a weighted gate mix (skew toward AND/OR for controlling-value-heavy
///    circuits, toward XOR for narrowing-resistant ones),
///  * reconvergence-rich fanout: input selection is biased toward a recent
///    window of nets, so stems with multiple converging branches — the
///    stem-correlation and dominator stages' subject matter — are common
///    rather than coincidental,
///  * injected false-path idioms (`append_false_path_block` kinds round-
///    robin), so the generated circuits exercise the same machinery the
///    paper's Table-1 circuits do,
///  * randomized per-gate delay annotation in [1, delay_max] (optionally
///    proper intervals with dmin < dmax).
/// Same config => same circuit, bit for bit.
struct StructuredCircuitConfig {
  unsigned inputs = 8;
  unsigned gates = 36;
  unsigned outputs = 4;
  std::uint64_t seed = 1;
  /// Gate-mix weights (relative; a zero weight removes the type).
  unsigned w_and = 4, w_or = 4, w_nand = 3, w_nor = 3;
  unsigned w_xor = 2, w_xnor = 1, w_not = 2, w_buf = 1, w_mux = 0;
  /// Percent chance an XOR/XNOR gets one input (XOR(a) = a, XNOR(a) = NOT
  /// a), a form only decompose_for_solver makes solver-ready. Zero draws
  /// nothing from the RNG, so other configs keep their circuits.
  unsigned unary_xor_percent = 0;
  /// Percent chance a gate input is drawn from the `recent_window` newest
  /// nets instead of uniformly — high values give deep, reconvergent DAGs.
  unsigned reconvergence_percent = 60;
  unsigned recent_window = 6;
  /// False-path blocks appended after the core DAG (kinds cycle through
  /// kLocalChain / kDominatorDiamond / kStemContradiction).
  unsigned false_path_blocks = 0;
  unsigned false_path_stages = 6;
  /// Per-gate dmax is uniform in [1, delay_max]; with `delay_intervals`
  /// dmin is uniform in [0, dmax] instead of dmin == dmax.
  std::int64_t delay_max = 10;
  bool delay_intervals = false;
};
[[nodiscard]] Circuit structured_random_circuit(
    const StructuredCircuitConfig& cfg);

}  // namespace waveck::gen
