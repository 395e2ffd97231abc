#include "constraints/constraint_system.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "constraints/projection.hpp"
#include "prof/perf_counters.hpp"

namespace waveck {

ConstraintSystem::ConstraintSystem(const Circuit& circuit)
    : circuit_(circuit),
      domains_(circuit.num_nets()),
      gate_level_(circuit.num_gates(), 0),
      save_epoch_(circuit.num_nets(), 0) {
  // Longest-path gate levels: level(g) = 1 + max level over driven inputs.
  for (GateId g : circuit.topo_order()) {
    if (circuit.gate(g).ins.size() > gate_ins_.size()) {
      throw std::invalid_argument(
          "gate fanin above 32: project_gate takes at most 32 inputs");
    }
    std::uint32_t lv = 0;
    for (NetId in : circuit.gate(g).ins) {
      const GateId drv = circuit.net(in).driver;
      if (drv.valid()) lv = std::max(lv, gate_level_[drv.index()] + 1);
    }
    gate_level_[g.index()] = lv;
  }
  plan_.build(circuit, gate_level_);
  slot_queued_.assign(circuit.num_gates());
  level_count_.assign(plan_.num_levels, 0);
  cursor_ = plan_.num_levels;
}

void ConstraintSystem::enable_change_log() {
  if (log_enabled_) return;
  log_enabled_ = true;
  log_bits_.assign(circuit_.num_nets());
}

void ConstraintSystem::save_if_needed(NetId n) {
  auto& epoch = save_epoch_[n.index()];
  if (epoch == current_epoch_) return;
  trail_.push_back({n, domains_.get(n), epoch});
  epoch = current_epoch_;
}

void ConstraintSystem::commit_domain(NetId n, const AbstractSignal& value,
                                     GateId /*source*/) {
  const AbstractSignal dom = domains_.get(n);
  const AbstractSignal nd = dom.intersect(value);
  if (nd == dom) return;

  save_if_needed(n);
  const bool was_single = dom.single_class();
  const bool was_bottom = dom.is_bottom();
  const Time old_latest = dom.latest();
  domains_.set(n, nd);
  ++narrowings_;
  ++domain_gen_;
  log_change(n);
  if (nd.is_bottom() && !was_bottom) {
    ++bottom_count_;
    fixpoint_.conflicts.inc();
  }

  // Magnitude of the tightening of the latest-transition bound; an infinite
  // jump (top -> finite, or a class emptying) lands in the overflow bucket.
  const Time new_latest = nd.latest();
  if (old_latest == new_latest) {
    fixpoint_.narrowing_magnitude.observe(0);
  } else if (old_latest.is_finite() && new_latest.is_finite()) {
    fixpoint_.narrowing_magnitude.observe(
        static_cast<std::uint64_t>(old_latest.value() - new_latest.value()));
  } else {
    fixpoint_.narrowing_magnitude.observe(
        telemetry::Histogram::bucket_lower_bound(
            telemetry::Histogram::kBuckets - 1));
  }

  schedule_net(n);

  if (implications_ != nullptr && !nd.is_bottom() && nd.single_class() &&
      !was_single) {
    const auto consequences = implications_->of(n, nd.the_class());
    fixpoint_.implication_scans.add(consequences.size());
    for (const auto& [x, w] : consequences) {
      // Class !w already empty (bottom included): intersecting x with
      // class_only(w) changes nothing, so the commit would return untouched.
      // Skip it straight off the planes.
      if (domains_.cls_empty(x.index(), w ? 0 : 1)) continue;
      fixpoint_.implication_narrowings.inc();
      commit_domain(x, AbstractSignal::class_only(w), GateId{});
    }
  }
}

bool ConstraintSystem::restrict_domain(NetId n, const AbstractSignal& with) {
  const std::uint64_t before = narrowings_;
  commit_domain(n, with, GateId{});
  return narrowings_ != before;
}

void ConstraintSystem::schedule_gate(GateId g) {
  const std::uint32_t slot = plan_.slot_of_gate[g.index()];
  if (slot_queued_.test_set(slot)) return;
  const std::size_t lv = gate_level_[g.index()];
  ++level_count_[lv];
  ++queue_size_;
  if (lv < cursor_) cursor_ = lv;
  if (lv > touched_hi_) touched_hi_ = lv;
}

void ConstraintSystem::schedule_net(NetId n) {
  const Net& net = circuit_.net(n);
  if (net.driver.valid()) schedule_gate(net.driver);
  for (GateId f : net.fanouts) schedule_gate(f);
}

void ConstraintSystem::schedule_all() {
  for (GateId g : circuit_.topo_order()) schedule_gate(g);
}

void ConstraintSystem::clear_queue() {
  if (queue_size_ != 0) {
    // Invariant: every level below cursor_ is already empty, and nothing
    // was pushed above touched_hi_ since the last clear.
    for (std::size_t lv = cursor_; lv <= touched_hi_; ++lv) {
      if (level_count_[lv] != 0) {
        slot_queued_.clear_range(plan_.level_begin[lv],
                                 plan_.level_begin[lv + 1]);
        level_count_[lv] = 0;
      }
    }
    queue_size_ = 0;
  }
  cursor_ = plan_.num_levels;
  touched_hi_ = 0;
}

void ConstraintSystem::apply_slot(std::uint32_t s) {
  const std::uint32_t off = plan_.ins_offset[s];
  const std::span<AbstractSignal> ins(gate_ins_.data(),
                                      plan_.ins_offset[s + 1] - off);
  const NetId onet{plan_.out_net[s]};
  AbstractSignal out = domains_.get(onet);
  for (std::size_t k = 0; k < ins.size(); ++k) {
    ins[k] = domains_.get(NetId{plan_.ins_net[off + k]});
  }
  DelaySpec d;
  d.dmin = plan_.dmin[s];
  d.dmax = plan_.dmax[s];
  const ProjectionDelta delta = project_gate(plan_.type[s], d, out, ins);
  if (delta.out_changed) commit_domain(onet, out, GateId{});
  for (std::size_t k = 0; k < ins.size(); ++k) {
    if (delta.in_changed(k)) {
      commit_domain(NetId{plan_.ins_net[off + k]}, ins[k], GateId{});
    }
  }
}

bool ConstraintSystem::sweep_level(std::size_t lv,
                                   std::uint64_t& next_deadline_check,
                                   std::size_t& peak_queue) {
  const std::uint32_t sb = plan_.level_begin[lv];
  const std::uint32_t se = plan_.level_begin[lv + 1];
  // Snapshot and unqueue the level's scheduled slots before evaluating
  // anything: commits during the sweep re-queue gates (same level included)
  // for the *next* sweep. The word scan yields slots in ascending order.
  sweep_slots_.clear();
  slot_queued_.for_each_set_in_range(sb, se, [&](std::size_t s) {
    sweep_slots_.push_back(static_cast<std::uint32_t>(s));
    // Wave width at this drain step (the popped gate included).
    fixpoint_.queue_depth.observe(queue_size_);
    if (queue_size_ > peak_queue) peak_queue = queue_size_;
    --queue_size_;
  });
  slot_queued_.clear_range(sb, se);
  level_count_[lv] = 0;

  for (const std::uint32_t s : sweep_slots_) {
    if (applications_ >= next_deadline_check) {
      if (prof::monotonic_ns() >= deadline_ns_) {
        clear_queue();
        deadline_hit_ = true;
        return false;
      }
      next_deadline_check = applications_ + kDeadlineStride;
    }
    ++applications_;
    apply_slot(s);
    if (bottom_count_ > 0) return true;  // outer loop clears and concludes
  }
  return true;
}

ConstraintSystem::Status ConstraintSystem::reach_fixpoint() {
  if (deadline_hit_) {
    // Expired on an earlier drain and not re-armed since: nothing more to
    // compute, the caller is on its way to kAbandoned.
    clear_queue();
    return Status::kPossibleViolation;
  }
  const std::uint64_t apps0 = applications_;
  const std::uint64_t nar0 = narrowings_;
  const std::size_t depth0 = queue_size_;
  // Hardware-counter window around the whole drain: two group reads per
  // fixpoint, nothing inside the loop.
  const bool perf_on = prof::counters_enabled();
  prof::CounterSample perf0;
  if (perf_on) perf0 = prof::thread_counter_group().read();
  // Tripwire against unforeseen non-termination (Theorem 1 guarantees the
  // fixpoint is finite; this bound is far above any observed run).
  const std::uint64_t budget =
      applications_ + 1000ull * std::max<std::size_t>(circuit_.num_gates(),
                                                      10000);
  Status status = Status::kPossibleViolation;
  std::size_t peak_queue = queue_size_;
  std::uint64_t sweeps = 0;
  // Deadline bookkeeping: one clock read every kDeadlineStride gate
  // applications (and one up front, so an already-expired deadline never
  // starts a drain). A hit clears the queue and latches deadline_hit_; the
  // domains stay sound but are not a fixpoint — callers must abandon.
  std::uint64_t next_deadline_check =
      deadline_ns_ != 0 ? applications_ : ~std::uint64_t{0};
  while (queue_size_ > 0) {
    while (level_count_[cursor_] == 0) ++cursor_;
    ++sweeps;
    if (!sweep_level(cursor_, next_deadline_check, peak_queue)) break;
    if (inconsistent()) {
      clear_queue();
      status = Status::kNoViolation;
      break;
    }
    if (applications_ > budget) {
      throw std::logic_error("constraint propagation exceeded budget");
    }
  }

  prof::CounterDelta perf;
  if (perf_on) {
    perf = prof::delta_between(perf0, prof::thread_counter_group().read());
  }
  probe::propagate(fixpoint_, {depth0, applications_ - apps0,
                               narrowings_ - nar0, sweeps,
                               status != Status::kNoViolation, trail_.size(),
                               peak_queue, arena_bytes(),
                               perf_on ? &perf : nullptr});
  return status;
}

std::vector<NetId> ConstraintSystem::changed_since(Mark mark) const {
  std::vector<NetId> nets;
  nets.reserve(trail_.size() - mark);
  for (std::size_t i = mark; i < trail_.size(); ++i) {
    nets.push_back(trail_[i].net);
  }
  return nets;
}

ConstraintSystem::Mark ConstraintSystem::push_state() {
  current_epoch_ = ++epoch_counter_;
  return trail_.size();
}

void ConstraintSystem::pop_to(Mark mark) {
  if (trail_.size() > mark) ++domain_gen_;
  while (trail_.size() > mark) {
    TrailEntry& e = trail_.back();
    if (domains_.is_bottom(e.net.index()) && !e.old_value.is_bottom()) {
      --bottom_count_;
    }
    domains_.set(e.net, e.old_value);
    save_epoch_[e.net.index()] = e.old_epoch;
    log_change(e.net);
    trail_.pop_back();
  }
  clear_queue();
  current_epoch_ = ++epoch_counter_;
}

}  // namespace waveck
