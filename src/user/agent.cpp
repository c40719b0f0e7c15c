#include "user/agent.hpp"

#include <algorithm>
#include <memory>

#include "snap/format.hpp"

namespace aroma::user {

UserAgent::UserAgent(sim::World& world, std::string name, Faculties faculties)
    : UserAgent(world, std::move(name), std::move(faculties), AgentParams{}) {}

UserAgent::UserAgent(sim::World& world, std::string name, Faculties faculties,
                     AgentParams params)
    : world_(world), name_(std::move(name)), faculties_(std::move(faculties)),
      params_(params),
      rng_(world.fork_rng(0xa6e47 ^ std::hash<std::string>{}(name_))) {}

double UserAgent::familiarity(const std::string& step_name) const {
  auto it = familiarity_.find(step_name);
  return it != familiarity_.end() ? it->second : 0.0;
}

double UserAgent::error_probability(const ProcedureStep& step) const {
  // Difficulty raises errors; GUI skill, domain knowledge, and practice
  // lower them. A fully familiar step is nearly error-free.
  const double skill =
      0.5 * faculties_.gui_skill + 0.5 * faculties_.domain_knowledge;
  const double fam = familiarity(step.name);
  const double p =
      step.conceptual_difficulty * (1.0 - 0.7 * skill) * (1.0 - 0.8 * fam);
  return std::clamp(p, 0.005, 0.95);
}

sim::Time UserAgent::think_time(const ProcedureStep& step) const {
  const double skill =
      0.5 * faculties_.gui_skill + 0.5 * faculties_.domain_knowledge;
  const double fam = familiarity(step.name);
  const double factor = (1.0 + 2.5 * step.conceptual_difficulty) *
                        (1.6 - skill) * (1.0 - 0.6 * fam);
  return sim::scale(params_.base_think, std::max(factor, 0.15));
}

void UserAgent::attempt(std::vector<ProcedureStep> steps,
                        std::function<void(const TaskOutcome&)> done) {
  ++attempts_;
  ++active_runs_;
  auto run = std::make_shared<Run>();
  run->steps = std::move(steps);
  run->started = world_.now();
  run->done = std::move(done);
  current_ = run;
  run_step(std::move(run));
}

void UserAgent::finish(std::shared_ptr<Run> run, bool success,
                       bool abandoned) {
  run->outcome.success = success;
  run->outcome.abandoned = abandoned;
  run->outcome.duration = world_.now() - run->started;
  run->outcome.final_frustration = frustration_;
  --active_runs_;
  if (current_ == run) current_.reset();
  if (run->done) run->done(run->outcome);
}

void UserAgent::run_step(std::shared_ptr<Run> run) {
  if (run->index >= run->steps.size()) {
    finish(std::move(run), /*success=*/true, /*abandoned=*/false);
    return;
  }
  if (frustration_ > faculties_.patience) {
    finish(std::move(run), /*success=*/false, /*abandoned=*/true);
    return;
  }
  const ProcedureStep& step = run->steps[run->index];
  const sim::Time think = think_time(step);
  frustration_ += params_.frustration_per_minute_waiting *
                  (think.seconds() / 60.0);

  schedule(think, std::move(run), /*recovery=*/false);
}

void UserAgent::schedule(sim::Time delay, std::shared_ptr<Run> run,
                         bool recovery) {
  pending_category_ = world_.sim().current_category();
  pending_recovery_ = recovery;
  pending_ = world_.sim().schedule_in(delay, wake(std::move(run), recovery));
}

sim::Callback UserAgent::wake(std::shared_ptr<Run> run, bool recovery) {
  return [this, run = std::move(run), recovery]() mutable {
    if (recovery) {
      run_step(std::move(run));
    } else {
      act(std::move(run));
    }
  };
}

void UserAgent::act(std::shared_ptr<Run> run) {
  ProcedureStep& step = run->steps[run->index];
  const bool user_errs = rng_.bernoulli(error_probability(step));
  if (user_errs) {
    ++run->outcome.errors;
    frustration_ += params_.frustration_per_error *
                    (1.0 + step.conceptual_difficulty);
    // Errors teach: familiarity grows through failure analysis too.
    familiarity_[step.name] = std::min(
        1.0, familiarity(step.name) + 0.5 * faculties_.learning_rate);
    if (step.unrecoverable) {
      finish(std::move(run), /*success=*/false, /*abandoned=*/false);
      return;
    }
    // Recover, then retry the same step.
    schedule(params_.error_recovery, std::move(run), /*recovery=*/true);
    return;
  }
  // Execute the real system action.
  auto after = [this, run = std::move(run)](bool system_ok) mutable {
    ProcedureStep& step = run->steps[run->index];
    if (!system_ok) {
      ++run->outcome.errors;
      frustration_ += params_.frustration_per_error;
      // A system refusal is confusing in proportion to difficulty; a
      // troubleshooting-capable user turns it into familiarity.
      familiarity_[step.name] =
          std::min(1.0, familiarity(step.name) +
                            0.5 * faculties_.tech_troubleshooting);
      schedule(params_.error_recovery, std::move(run), /*recovery=*/true);
      return;
    }
    familiarity_[step.name] =
        std::min(1.0, familiarity(step.name) + faculties_.learning_rate);
    frustration_ =
        std::max(0.0, frustration_ - params_.frustration_decay_per_step);
    ++run->outcome.steps_completed;
    ++run->index;
    run_step(std::move(run));
  };
  if (step.action) {
    step.action(std::move(after));
  } else {
    after(true);
  }
}

bool UserAgent::snap_quiescent(std::string* why) const {
  if (active_runs_ == 0) return true;
  if (active_runs_ == 1 && current_ != nullptr &&
      world_.sim().pending_event_info(pending_).valid) {
    return true;  // thinking or recovering: our own event is the only state
  }
  if (why) *why = "procedure step action in flight";
  return false;
}

void UserAgent::save(snap::SectionWriter& w) const {
  const sim::Rng::State st = rng_.state();
  for (int i = 0; i < 4; ++i) w.u64(st.s[i]);
  w.f64(st.cached_normal);
  w.b(st.has_cached_normal);
  w.f64(frustration_);
  w.u64(attempts_);
  w.u64(familiarity_.size());
  for (const auto& [step, fam] : familiarity_) {
    w.str(step);
    w.f64(fam);
  }
  w.b(current_ != nullptr);
  if (current_ == nullptr) return;
  w.u64(current_->index);
  w.u64(current_->outcome.steps_completed);
  w.u64(current_->outcome.errors);
  w.time_delta(current_->started);
  w.b(pending_recovery_);
  w.u8(static_cast<std::uint8_t>(pending_category_));
  const sim::Simulator::PendingEventInfo info =
      world_.sim().pending_event_info(pending_);
  w.b(info.valid);
  if (info.valid) {
    w.time_delta(info.when);
    w.u64(info.seq);
    w.u64(info.id);
  }
}

void UserAgent::restore(snap::SectionReader& r) {
  sim::Rng::State st;
  for (int i = 0; i < 4; ++i) st.s[i] = r.u64();
  st.cached_normal = r.f64();
  st.has_cached_normal = r.b();
  rng_.set_state(st);
  frustration_ = r.f64();
  attempts_ = r.u64();
  familiarity_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string step = r.str();
    familiarity_[step] = r.f64();
  }
  // Only valid after Simulator::clear_pending(): the warmup's pending
  // event is gone, so its handle is overwritten, never cancelled.
  pending_ = sim::EventHandle{};
  if (!r.b()) {
    current_.reset();
    active_runs_ = 0;
    return;
  }
  // The structural rebuild started the same attempt (same steps, same
  // completion callback); overwrite its position.
  if (current_ == nullptr) {
    throw snap::SnapError("user agent " + name_ +
                          ": no attempt in flight to restore into");
  }
  current_->index = static_cast<std::size_t>(r.u64());
  if (current_->index >= current_->steps.size()) {
    throw snap::SnapError("user agent " + name_ + ": step index out of range");
  }
  current_->outcome.steps_completed = static_cast<std::size_t>(r.u64());
  current_->outcome.errors = r.u64();
  current_->started = r.time_delta();
  pending_recovery_ = r.b();
  const std::uint8_t category = r.u8();
  if (category >= sim::kEventCategoryCount) {
    throw snap::SnapError("user agent " + name_ + ": bad event category");
  }
  pending_category_ = static_cast<sim::EventCategory>(category);
  active_runs_ = 1;
  if (!r.b()) return;
  const sim::Time when = r.time_delta();
  const std::uint64_t seq = r.u64();
  const std::uint64_t id = r.u64();
  pending_ = world_.sim().restore_event(when, seq, id, pending_category_,
                                        wake(current_, pending_recovery_));
}

}  // namespace aroma::user
