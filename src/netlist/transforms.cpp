#include "netlist/transforms.hpp"

#include <array>
#include <string>
#include <vector>

namespace waveck {
namespace {

/// Incremental builder that copies the net space of a source circuit and
/// appends helper nets with unique names.
class Rebuilder {
 public:
  explicit Rebuilder(const Circuit& src, std::string suffix)
      : src_(src), out_(src.name()), suffix_(std::move(suffix)) {
    map_.reserve(src.num_nets());
    for (NetId n : src.all_nets()) {
      const NetId nn = out_.add_net(src.net(n).name);
      map_.push_back(nn);
      if (src.net(n).is_primary_input) out_.declare_input(nn);
      if (src.net(n).is_primary_output) out_.declare_output(nn);
    }
  }

  [[nodiscard]] NetId mapped(NetId src_net) const {
    return map_[src_net.index()];
  }

  [[nodiscard]] NetId fresh_net() {
    return out_.add_net("n" + suffix_ + std::to_string(counter_++));
  }

  GateId emit(GateType t, NetId out, std::vector<NetId> ins, DelaySpec d) {
    return out_.add_gate(t, out, std::move(ins), d);
  }

  [[nodiscard]] Circuit finish() {
    out_.finalize();
    return std::move(out_);
  }

 private:
  const Circuit& src_;
  Circuit out_;
  std::string suffix_;
  std::vector<NetId> map_;
  std::size_t counter_ = 0;
};

}  // namespace

Circuit decompose_for_solver(const Circuit& c, const DecomposeOptions& opt) {
  Rebuilder rb(c, "__d");
  for (GateId gid : c.topo_order()) {
    const Gate& g = c.gate(gid);
    std::vector<NetId> ins;
    ins.reserve(g.ins.size());
    for (NetId i : g.ins) ins.push_back(rb.mapped(i));
    const NetId out = rb.mapped(g.out);

    if (is_xor_like(g.type) && ins.size() == 1) {
      // XOR(a) = a and XNOR(a) = NOT a; the solver's XOR projection is
      // binary.
      rb.emit(g.type == GateType::kXor ? GateType::kBuf : GateType::kNot, out,
              std::move(ins), g.delay);
      continue;
    }

    if (opt.split_wide_xor && is_xor_like(g.type) && ins.size() > 2) {
      // Balanced tree of 2-input XORs; the root carries the original type
      // (XOR vs XNOR) and the original delay.
      std::vector<NetId> layer = ins;
      while (layer.size() > 2) {
        std::vector<NetId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
          const NetId t = rb.fresh_net();
          rb.emit(GateType::kXor, t, {layer[i], layer[i + 1]}, DelaySpec{});
          next.push_back(t);
        }
        if (layer.size() % 2) next.push_back(layer.back());
        layer = std::move(next);
      }
      rb.emit(g.type, out, {layer[0], layer[1]}, g.delay);
      continue;
    }

    if (opt.lower_mux && g.type == GateType::kMux) {
      // out = (NOT s AND d0) OR (s AND d1); delay kept on the final OR.
      const NetId s = ins[0], d0 = ins[1], d1 = ins[2];
      const NetId ns = rb.fresh_net();
      const NetId a0 = rb.fresh_net();
      const NetId a1 = rb.fresh_net();
      rb.emit(GateType::kNot, ns, {s}, DelaySpec{});
      rb.emit(GateType::kAnd, a0, {ns, d0}, DelaySpec{});
      rb.emit(GateType::kAnd, a1, {s, d1}, DelaySpec{});
      rb.emit(GateType::kOr, out, {a0, a1}, g.delay);
      continue;
    }

    rb.emit(g.type, out, std::move(ins), g.delay);
  }
  return rb.finish();
}

Circuit map_to_nor(const Circuit& c) {
  Rebuilder rb(c, "__nor");
  const DelaySpec z{};

  auto inv = [&](NetId a) {
    const NetId t = rb.fresh_net();
    rb.emit(GateType::kNor, t, {a}, z);
    return t;
  };
  // 4-NOR XNOR cell: n = NOR(a,b); XNOR(a,b) = NOR(NOR(a,n), NOR(b,n)).
  auto xnor_into = [&](NetId a, NetId b, NetId out) {
    const NetId n = rb.fresh_net();
    const NetId x = rb.fresh_net();
    const NetId y = rb.fresh_net();
    rb.emit(GateType::kNor, n, {a, b}, z);
    rb.emit(GateType::kNor, x, {a, n}, z);
    rb.emit(GateType::kNor, y, {b, n}, z);
    rb.emit(GateType::kNor, out, {x, y}, z);
  };

  for (GateId gid : c.topo_order()) {
    const Gate& g = c.gate(gid);
    std::vector<NetId> ins;
    ins.reserve(g.ins.size());
    for (NetId i : g.ins) ins.push_back(rb.mapped(i));
    const NetId out = rb.mapped(g.out);

    switch (g.type) {
      case GateType::kNor:
        rb.emit(GateType::kNor, out, std::move(ins), z);
        break;
      case GateType::kOr: {
        const NetId t = rb.fresh_net();
        rb.emit(GateType::kNor, t, std::move(ins), z);
        rb.emit(GateType::kNor, out, {t}, z);
        break;
      }
      case GateType::kNot:
        rb.emit(GateType::kNor, out, {ins[0]}, z);
        break;
      case GateType::kBuf:
      case GateType::kDelay: {
        const NetId t = inv(ins[0]);
        rb.emit(GateType::kNor, out, {t}, z);
        break;
      }
      case GateType::kAnd: {
        std::vector<NetId> invd;
        invd.reserve(ins.size());
        for (NetId i : ins) invd.push_back(inv(i));
        rb.emit(GateType::kNor, out, std::move(invd), z);
        break;
      }
      case GateType::kNand: {
        std::vector<NetId> invd;
        invd.reserve(ins.size());
        for (NetId i : ins) invd.push_back(inv(i));
        const NetId t = rb.fresh_net();
        rb.emit(GateType::kNor, t, std::move(invd), z);
        rb.emit(GateType::kNor, out, {t}, z);
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        if (ins.size() == 1) {  // degenerate: XOR(a) = a, XNOR(a) = !a
          if (g.type == GateType::kXnor) {
            rb.emit(GateType::kNor, out, {ins[0]}, z);
          } else {
            const NetId t = inv(ins[0]);
            rb.emit(GateType::kNor, out, {t}, z);
          }
          break;
        }
        // Reduce wide gates pairwise: XOR...XOR, final stage fixes parity.
        std::vector<NetId> layer = ins;
        while (layer.size() > 2) {
          std::vector<NetId> next;
          for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
            const NetId xn = rb.fresh_net();
            xnor_into(layer[i], layer[i + 1], xn);
            next.push_back(inv(xn));  // XOR = NOT XNOR
          }
          if (layer.size() % 2) next.push_back(layer.back());
          layer = std::move(next);
        }
        const NetId a = layer[0];
        const NetId b = layer[1];
        if (g.type == GateType::kXnor) {
          xnor_into(a, b, out);
        } else {
          const NetId xn = rb.fresh_net();
          xnor_into(a, b, xn);
          rb.emit(GateType::kNor, out, {xn}, z);
        }
        break;
      }
      case GateType::kMux: {
        // (NOT s AND d0) OR (s AND d1) in NORs:
        // a0 = NOR(s, nd0); a1 = NOR(ns, nd1); out = NOR(NOR(a0,a1)) -- via
        // OR(a0,a1) = NOR(NOR(a0,a1)): a0 = !s & d0 = NOR(s, !d0).
        const NetId s = ins[0], d0 = ins[1], d1 = ins[2];
        const NetId nd0 = inv(d0);
        const NetId nd1 = inv(d1);
        const NetId ns = inv(s);
        const NetId a0 = rb.fresh_net();
        const NetId a1 = rb.fresh_net();
        const NetId o = rb.fresh_net();
        rb.emit(GateType::kNor, a0, {s, nd0}, z);
        rb.emit(GateType::kNor, a1, {ns, nd1}, z);
        rb.emit(GateType::kNor, o, {a0, a1}, z);
        rb.emit(GateType::kNor, out, {o}, z);
        break;
      }
    }
  }
  return rb.finish();
}

Circuit insert_buffers(const Circuit& c, const std::vector<NetId>& nets) {
  std::vector<bool> selected(c.num_nets(), false);
  for (NetId n : nets) {
    if (n.index() < c.num_nets()) selected[n.index()] = true;
  }
  Rebuilder rb(c, "__buf");
  // Read-side alias: fanout gates of a selected net read its buffered copy;
  // the original net keeps its driver and any primary-output declaration.
  std::vector<NetId> alias(c.num_nets());
  for (NetId n : c.all_nets()) alias[n.index()] = rb.mapped(n);
  const auto buffer_now = [&](NetId src) {
    const NetId b = rb.fresh_net();
    rb.emit(GateType::kBuf, b, {rb.mapped(src)}, DelaySpec{});
    alias[src.index()] = b;
  };
  for (NetId in : c.inputs()) {
    if (selected[in.index()]) buffer_now(in);
  }
  for (GateId gid : c.topo_order()) {
    const Gate& g = c.gate(gid);
    std::vector<NetId> ins;
    ins.reserve(g.ins.size());
    for (NetId i : g.ins) ins.push_back(alias[i.index()]);
    rb.emit(g.type, rb.mapped(g.out), std::move(ins), g.delay);
    if (selected[g.out.index()]) buffer_now(g.out);
  }
  return rb.finish();
}

std::size_t GateHistogram::total() const {
  std::size_t t = 0;
  for (auto c : count) t += c;
  return t;
}

GateHistogram histogram(const Circuit& c) {
  GateHistogram h;
  for (GateId g : c.all_gates()) {
    ++h.count[static_cast<std::size_t>(c.gate(g).type)];
  }
  return h;
}

}  // namespace waveck
