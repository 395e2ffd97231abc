#include "sim/floating_sim.hpp"

#include <cassert>
#include <stdexcept>

namespace waveck {

FloatingResult simulate_floating(const Circuit& c,
                                 const std::vector<bool>& inputs) {
  assert(inputs.size() == c.inputs().size());
  FloatingResult r;
  r.value = std::vector<bool>(c.num_nets(), false);
  r.settle.assign(c.num_nets(), Time(0));

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    r.value[c.inputs()[i].index()] = inputs[i];
  }

  std::vector<bool> invals;
  for (GateId gid : c.topo_order()) {
    const Gate& g = c.gate(gid);
    invals.clear();
    for (NetId in : g.ins) invals.push_back(r.value[in.index()]);
    const bool out = eval_gate(g.type, invals);

    Time t = Time::neg_inf();
    if (has_controlling_value(g.type)) {
      const bool cv = controlling_value(g.type);
      Time earliest_ctrl = Time::pos_inf();
      Time latest = Time::neg_inf();
      for (std::size_t i = 0; i < g.ins.size(); ++i) {
        const Time ti = r.settle[g.ins[i].index()];
        latest = Time::max(latest, ti);
        if (invals[i] == cv) earliest_ctrl = Time::min(earliest_ctrl, ti);
      }
      t = Time::min(earliest_ctrl, latest);
    } else if (g.type == GateType::kMux) {
      const Time ts = r.settle[g.ins[0].index()];
      const Time t0 = r.settle[g.ins[1].index()];
      const Time t1 = r.settle[g.ins[2].index()];
      const Time selected = Time::max(ts, invals[0] ? t1 : t0);
      // When both data inputs agree, the select no longer matters once both
      // data inputs are stable.
      const Time agree = invals[1] == invals[2] ? Time::max(t0, t1)
                                                : Time::pos_inf();
      t = Time::min(selected, agree);
    } else {
      for (NetId in : g.ins) {
        t = Time::max(t, r.settle[in.index()]);
      }
    }
    r.value[g.out.index()] = out;
    r.settle[g.out.index()] = t + g.delay.dmax;
  }
  return r;
}

namespace {

template <class Visit>
void for_each_vector(const Circuit& c, unsigned max_inputs, Visit visit) {
  const std::size_t n = c.inputs().size();
  if (n > max_inputs || n >= 63) {
    // n >= 63 would overflow the vector-count shift below even if the
    // caller raised max_inputs — an impossible enumeration either way, so
    // diagnose rather than wrap silently.
    throw OracleLimitError(c.name(), n, n > max_inputs ? max_inputs : 62);
  }
  std::vector<bool> v(n, false);
  const std::uint64_t total = std::uint64_t{1} << n;
  for (std::uint64_t bits = 0; bits < total; ++bits) {
    for (std::size_t i = 0; i < n; ++i) v[i] = (bits >> i) & 1;
    if (!visit(v)) return;
  }
}

}  // namespace

Time exhaustive_floating_delay(const Circuit& c, NetId s,
                               unsigned max_inputs) {
  Time worst = Time::neg_inf();
  for_each_vector(c, max_inputs, [&](const std::vector<bool>& v) {
    const auto r = simulate_floating(c, v);
    worst = Time::max(worst, r.settle[s.index()]);
    return true;
  });
  return worst;
}

Time exhaustive_floating_delay(const Circuit& c, unsigned max_inputs) {
  Time worst = Time::neg_inf();
  for_each_vector(c, max_inputs, [&](const std::vector<bool>& v) {
    const auto r = simulate_floating(c, v);
    for (NetId o : c.outputs()) {
      worst = Time::max(worst, r.settle[o.index()]);
    }
    return true;
  });
  return worst;
}

std::optional<std::vector<bool>> find_violating_vector(const Circuit& c,
                                                       NetId s, Time delta,
                                                       unsigned max_inputs) {
  std::optional<std::vector<bool>> found;
  for_each_vector(c, max_inputs, [&](const std::vector<bool>& v) {
    const auto r = simulate_floating(c, v);
    if (r.settle[s.index()] >= delta) {
      found = v;
      return false;
    }
    return true;
  });
  return found;
}

}  // namespace waveck
