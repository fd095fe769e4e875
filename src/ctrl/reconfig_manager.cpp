#include "ctrl/reconfig_manager.h"

#include <algorithm>
#include <cassert>

namespace flowvalve::ctrl {

ReconfigManager::ReconfigManager(sim::Simulator& sim, np::NicPipeline& pipeline,
                                 core::FlowValveEngine& engine,
                                 obs::ReconfigTracker* tracker)
    : sim_(sim), pipeline_(pipeline), engine_(engine), tracker_(tracker) {
  const unsigned n = pipeline_.config().num_workers;
  cut_.assign(n, false);
  stale_.assign(n, false);
  epoch_ = target_ = engine_.tree().policy_epoch();
  pipeline_.set_control_hook(this);
}

ReconfigManager::~ReconfigManager() {
  pipeline_.set_control_hook(nullptr);
  stall_timer_.cancel();
  guard_timer_.cancel();
}

unsigned ReconfigManager::wave() const {
  return std::max(1u, pipeline_.config().num_workers / kRolloutWaves);
}

std::uint32_t ReconfigManager::worker_epoch(unsigned w) const {
  if (state_ == State::kRollout && w < cut_.size() && cut_[w]) return target_;
  return epoch_;
}

void ReconfigManager::fault_stale_worker(unsigned w) {
  if (w < stale_.size()) stale_[w] = true;
}

void ReconfigManager::repair_stale_workers() {
  std::fill(stale_.begin(), stale_.end(), false);
}

void ReconfigManager::storm(unsigned n) {
  // No-op delta against the root: semantically valid, exercises the full
  // stage/rollout/commit machinery without changing behavior.
  const core::SchedulingTree& tree = engine_.tree();
  if (tree.size() == 0) return;
  PolicyUpdate u;
  u.deltas.push_back(PolicyDelta{tree.at(tree.root()).name, {}, {}, {}, {}});
  for (unsigned i = 0; i < n; ++i) apply(u);
}

std::string ReconfigManager::apply(const PolicyUpdate& update) {
  const sim::SimTime now = sim_.now();
  const std::string kind = update.is_script() ? "script" : "delta";
  ValidatedUpdate v = validate_update(engine_, update);
  if (!v.ok()) {
    ++stats_.rejected;
    if (tracker_) {
      obs::ReconfigRecord& r = tracker_->record();
      r.kind = kind;
      r.submitted_at = now;
      r.outcome = "rejected: " + v.error;
    }
    return v.error;
  }
  if (busy()) {
    // An update storm coalesces: only the newest pending request survives;
    // it is re-validated when its turn comes.
    if (queued_.has_value()) {
      ++stats_.coalesced;
      if (tracker_) tracker_->note_coalesced();
    }
    queued_ = update;
    ++stats_.applied;
    return {};
  }
  ++stats_.applied;
  begin_rollout(std::move(v), kind, now);
  return {};
}

void ReconfigManager::begin_rollout(ValidatedUpdate&& v, const std::string& kind,
                                    sim::SimTime now) {
  core::SchedulingTree& tree = engine_.tree();
  open_ = obs::ReconfigRecord{};
  open_.kind = kind;
  open_.submitted_at = now;

  // Snapshot the prior state the rollback path restores.
  prior_.clear();
  for (const auto& [id, pol] : v.manifest) prior_.emplace_back(id, tree.at(id).policy);
  pending_filter_swap_ = v.replace_filters;
  filters_swapped_ = false;
  if (pending_filter_swap_) {
    core::Classifier& cls = engine_.classifier();
    prior_filters_ = cls.rules();
    prior_default_ = cls.default_label();
    new_filters_ = std::move(v.filters);
    new_default_ = v.default_label;
  }

  manifest_ = std::move(v.manifest);
  target_ = tree.stage(manifest_);
  open_.target_epoch = target_;

  // Latched torn-update fault: the staged multi-word write tears mid-DMA,
  // so every stride-th class's staged image still holds its OLD policy
  // words. The tear must hit the staging (not the final sweep): a loaded
  // pipeline commits classes from the data path long before finish_rollout,
  // and both commit paths must install the same torn image for the
  // post-commit verification to catch.
  if (tear_stride_ > 0) {
    for (std::size_t i = 0; i < manifest_.size(); i += tear_stride_)
      tree.at(manifest_[i].first).staged_policy = tree.at(manifest_[i].first).policy;
    tear_stride_ = 0;
  }

  std::fill(cut_.begin(), cut_.end(), false);
  cut_count_ = 0;
  eligible_limit_ = wave();
  state_ = State::kRollout;
  if (observer_) observer_->on_staged(target_, now);
  stall_timer_.cancel();
  stall_timer_ = sim_.schedule_after(kStallTimeout, [this] { on_stall_timeout(); });
}

np::ControlHook::Cutover ReconfigManager::on_packet_boundary(
    unsigned worker, sim::SimTime now, unsigned packets) {
  if (state_ != State::kRollout) return {epoch_, 0};
  const unsigned n = static_cast<unsigned>(cut_.size());
  if (worker < n && cut_[worker]) {
    // A cut-over worker reaching its next boundary is the proof the current
    // wave runs clean on the new epoch; only then does the budget advance.
    // Until it does, the not-yet-eligible workers below keep dispatching on
    // the old epoch — that is the measurable mixed-epoch window.
    if (cut_count_ >= eligible_limit_ && eligible_limit_ < n)
      eligible_limit_ = std::min(n, eligible_limit_ + wave());
    return {target_, 0};
  }
  if (worker < n && !stale_[worker] && cut_count_ < eligible_limit_) {
    // Safe burst-boundary cutover: the worker switches its epoch register
    // before this burst's run-to-completion interval, so every packet of
    // the burst schedules against the same (new) epoch — a cutover can
    // never land mid-burst.
    cut_[worker] = true;
    ++cut_count_;
    ++open_.cutover_workers;
    if (cut_count_ == n) finish_rollout(now);
    // Stamp AFTER a possible finish_rollout: a torn-update detected there
    // rolls back synchronously, and this burst must then carry the
    // restored epoch, not the vanished target (worker_epoch resolves both
    // cases, including a queued update starting a fresh rollout).
    return {worker_epoch(worker), kCutoverCycles};
  }
  // Not yet eligible (wave gating) or stale-faulted: every packet of the
  // burst is scheduled against the old epoch — the bounded mixed-epoch
  // window, still counted per packet at any batch size.
  open_.mixed_epoch_packets += packets;
  stats_.mixed_epoch_packets += packets;
  return {epoch_, 0};
}

void ReconfigManager::on_stall_timeout() {
  if (state_ != State::kRollout) return;
  const sim::SimTime now = sim_.now();
  for (unsigned w = 0; w < stale_.size(); ++w) {
    if (stale_[w]) {
      do_rollback("stale-epoch worker " + std::to_string(w), now);
      return;
    }
  }
  ++stats_.stalled;
  open_.stalled = true;
  if (observer_) observer_->on_stall(target_, now);
  // Bounded degradation: shed load only if the pipeline is actually backed
  // up behind the stalled swap; an idle pipeline just gets force-cut.
  if (pipeline_.in_flight() > pipeline_.config().num_workers) {
    pipeline_.control_force_admission(kStallShedModulus);
    open_.shed_engaged = true;
    stats_.admission_forced = true;
  }
  for (unsigned w = 0; w < cut_.size(); ++w) {
    if (cut_[w]) continue;
    cut_[w] = true;
    ++cut_count_;
    ++open_.forced_cutovers;
    ++stats_.forced_cutovers;
  }
  finish_rollout(now);
}

void ReconfigManager::finish_rollout(sim::SimTime now) {
  stall_timer_.cancel();
  core::SchedulingTree& tree = engine_.tree();

  tree.commit_all(now);
  if (pending_filter_swap_) {
    core::Classifier& cls = engine_.classifier();
    cls.replace_rules(new_filters_);
    cls.set_default_label(new_default_);
    // Lazy cache invalidation: entries cached under the old filter set are
    // re-classified on their next hit instead of flushing the whole EMC.
    cls.bump_label_epoch();
    filters_swapped_ = true;
  }

  // Post-commit verification (torn-update detection): every manifest class
  // must now carry exactly its target policy.
  for (const auto& [id, pol] : manifest_) {
    const core::NodePolicy& live = tree.at(id).policy;
    if (live.prio != pol.prio || live.weight != pol.weight ||
        live.guarantee != pol.guarantee || live.ceil != pol.ceil) {
      do_rollback("torn-update on class '" + tree.at(id).name + "'", now);
      return;
    }
  }

  epoch_ = target_;
  state_ = State::kProbation;
  probation_end_ = now + kProbation;
  guard_timer_.cancel();
  guard_timer_ = sim_.schedule_after(kGuardPeriod, [this] { guard_tick(); });
}

void ReconfigManager::guard_tick() {
  if (state_ != State::kProbation) return;
  const sim::SimTime now = sim_.now();
  for (unsigned w = 0; w < stale_.size(); ++w) {
    if (stale_[w]) {
      do_rollback("stale-epoch worker " + std::to_string(w), now);
      return;
    }
  }
  if (now >= probation_end_) {
    commit(now);
    return;
  }
  const sim::SimDuration next =
      std::min<sim::SimDuration>(kGuardPeriod, probation_end_ - now);
  guard_timer_ = sim_.schedule_after(std::max<sim::SimDuration>(1, next),
                                     [this] { guard_tick(); });
}

void ReconfigManager::commit(sim::SimTime now) {
  ++stats_.committed;
  pipeline_.control_release_admission();
  open_.committed_at = now;
  close_record(now, "committed");
  state_ = State::kIdle;
  if (observer_) observer_->on_committed(epoch_, now);
  dequeue();
}

bool ReconfigManager::rollback(const std::string& reason) {
  if (state_ == State::kIdle) return false;
  do_rollback(reason, sim_.now());
  return true;
}

void ReconfigManager::do_rollback(const std::string& reason, sim::SimTime now) {
  stall_timer_.cancel();
  guard_timer_.cancel();
  core::SchedulingTree& tree = engine_.tree();
  const std::uint32_t from = tree.policy_epoch() == target_ ? target_ : epoch_;

  // Restore the prior policies at a NEW, strictly higher epoch — epochs are
  // monotonic so a stamped packet can never meet two meanings of the same
  // epoch number. Rollback is a control-plane emergency write: staged and
  // committed in one step, no packet participation.
  if (tree.rollout_active()) tree.abandon_stage();
  tree.stage(prior_);
  tree.commit_all(now);
  if (filters_swapped_) {
    core::Classifier& cls = engine_.classifier();
    cls.replace_rules(prior_filters_);
    cls.set_default_label(prior_default_);
    cls.bump_label_epoch();
    filters_swapped_ = false;
  }
  epoch_ = target_ = tree.policy_epoch();
  std::fill(cut_.begin(), cut_.end(), false);
  cut_count_ = 0;
  pipeline_.control_release_admission();

  ++stats_.rolled_back;
  open_.rolled_back_at = now;
  close_record(now, "rolled-back: " + reason);
  state_ = State::kIdle;
  if (observer_) observer_->on_rolled_back(from, epoch_, reason, now);
  dequeue();
}

void ReconfigManager::close_record(sim::SimTime, std::string outcome) {
  open_.outcome = std::move(outcome);
  if (tracker_) tracker_->record() = open_;
  open_ = obs::ReconfigRecord{};
}

void ReconfigManager::dequeue() {
  if (!queued_.has_value()) return;
  PolicyUpdate next = std::move(*queued_);
  queued_.reset();
  // Re-validated against the now-current state; a stale queued update that
  // no longer validates lands as a rejected record. apply() cannot recurse
  // back here: the manager is idle and the queue is empty.
  --stats_.applied;  // avoid double counting: it was counted when queued
  apply(next);
}

}  // namespace flowvalve::ctrl
