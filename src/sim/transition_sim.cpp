#include "sim/transition_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace waveck {

AbstractSignal transition_input_signal(bool v1, bool v2) {
  AbstractSignal s;
  s.cls(!v2) = LtInterval::empty();
  s.cls(v2) = v1 == v2 ? LtInterval{Time::neg_inf(), Time::neg_inf()}
                       : LtInterval{Time(0), Time(0)};
  return s;
}

FloatingResult simulate_transition(const Circuit& c,
                                   const std::vector<bool>& v1,
                                   const std::vector<bool>& v2) {
  assert(v1.size() == c.inputs().size() && v2.size() == c.inputs().size());
  FloatingResult r;
  r.value = std::vector<bool>(c.num_nets(), false);
  r.settle.assign(c.num_nets(), Time::neg_inf());
  for (std::size_t i = 0; i < v2.size(); ++i) {
    const NetId in = c.inputs()[i];
    r.value[in.index()] = v2[i];
    r.settle[in.index()] = v1[i] == v2[i] ? Time::neg_inf() : Time(0);
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
      const Time agree =
          invals[1] == invals[2] ? Time::max(t0, t1) : Time::pos_inf();
      t = Time::min(selected, agree);
    } else {
      for (NetId in : g.ins) t = Time::max(t, r.settle[in.index()]);
    }
    r.value[g.out.index()] = out;
    // A net that never transitions stays at -inf; delays only apply to
    // actual settling events.
    r.settle[g.out.index()] = t == Time::neg_inf() ? t : t + g.delay.dmax;
  }
  return r;
}

namespace {

template <class Visit>
void for_each_pair(const Circuit& c, unsigned max_inputs, Visit visit) {
  const std::size_t n = c.inputs().size();
  if (n > max_inputs) {
    throw std::invalid_argument(
        "exhaustive transition oracle limited to " +
        std::to_string(max_inputs) + " inputs; circuit has " +
        std::to_string(n));
  }
  std::vector<bool> v1(n), v2(n);
  const std::uint64_t total = std::uint64_t{1} << n;
  for (std::uint64_t b1 = 0; b1 < total; ++b1) {
    for (std::size_t i = 0; i < n; ++i) v1[i] = (b1 >> i) & 1;
    for (std::uint64_t b2 = 0; b2 < total; ++b2) {
      for (std::size_t i = 0; i < n; ++i) v2[i] = (b2 >> i) & 1;
      visit(v1, v2);
    }
  }
}

}  // namespace

Time exhaustive_transition_delay(const Circuit& c, NetId s,
                                 unsigned max_inputs) {
  Time worst = Time::neg_inf();
  for_each_pair(c, max_inputs, [&](const auto& v1, const auto& v2) {
    worst = Time::max(worst,
                      simulate_transition(c, v1, v2).settle[s.index()]);
  });
  return worst;
}

Time exhaustive_transition_delay(const Circuit& c, unsigned max_inputs) {
  Time worst = Time::neg_inf();
  for_each_pair(c, max_inputs, [&](const auto& v1, const auto& v2) {
    const auto r = simulate_transition(c, v1, v2);
    for (NetId o : c.outputs()) {
      worst = Time::max(worst, r.settle[o.index()]);
    }
  });
  return worst;
}

std::vector<NetId> critical_true_path(const Circuit& c,
                                      const FloatingResult& r, NetId s) {
  std::vector<NetId> path{s};
  NetId cur = s;
  while (c.net(cur).driver.valid()) {
    const Gate& g = c.gate(c.net(cur).driver);
    // The input that determined the settle time, mirroring the simulator's
    // min/max rules.
    NetId pick = g.ins.front();
    if (has_controlling_value(g.type)) {
      const bool cv = controlling_value(g.type);
      Time earliest_ctrl = Time::pos_inf();
      NetId ctrl;
      Time latest = Time::neg_inf();
      NetId late = g.ins.front();
      for (NetId in : g.ins) {
        const Time ti = r.settle[in.index()];
        if (r.value[in.index()] == cv && ti < earliest_ctrl) {
          earliest_ctrl = ti;
          ctrl = in;
        }
        if (ti >= latest) {
          latest = ti;
          late = in;
        }
      }
      pick = ctrl.valid() && earliest_ctrl <= latest ? ctrl : late;
    } else if (g.type == GateType::kMux) {
      const bool sel = r.value[g.ins[0].index()];
      const NetId data = g.ins[sel ? 2 : 1];
      const NetId other = g.ins[sel ? 1 : 2];
      const Time selected =
          Time::max(r.settle[g.ins[0].index()], r.settle[data.index()]);
      const bool agree =
          r.value[g.ins[1].index()] == r.value[g.ins[2].index()];
      if (agree && Time::max(r.settle[data.index()],
                             r.settle[other.index()]) < selected) {
        pick = r.settle[data.index()] >= r.settle[other.index()] ? data
                                                                 : other;
      } else {
        pick = r.settle[g.ins[0].index()] >= r.settle[data.index()]
                   ? g.ins[0]
                   : data;
      }
    } else {
      Time latest = Time::neg_inf();
      for (NetId in : g.ins) {
        if (r.settle[in.index()] >= latest) {
          latest = r.settle[in.index()];
          pick = in;
        }
      }
    }
    cur = pick;
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace waveck
