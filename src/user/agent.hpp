// A simulated human attempting a multi-step procedure.
//
// The agent thinks (time scaled by skill and step difficulty), acts
// (possibly choosing wrongly when its mental model diverges), observes the
// outcome, accumulates frustration on errors and waits, and abandons the
// task when frustration exceeds its tolerance — "if this burden is greater
// than what users are willing to bear in meeting their goals, then the
// system will not be used."
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/world.hpp"
#include "user/faculties.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::user {

/// One step of a procedure, from the user's point of view.
struct ProcedureStep {
  std::string name;
  /// The system-side effect; reports whether the system accepted it.
  std::function<void(std::function<void(bool)> done)> action;
  /// 0 = obvious (matches common metaphors), 1 = deeply unintuitive.
  double conceptual_difficulty = 0.3;
  /// Whether a user error here aborts the whole attempt (vs. retry).
  bool unrecoverable = false;
};

struct TaskOutcome {
  bool success = false;
  bool abandoned = false;        // frustration exceeded tolerance
  std::size_t steps_completed = 0;
  std::uint64_t errors = 0;
  double final_frustration = 0.0;
  sim::Time duration;
};

/// Behavioural parameters of the simulated human.
struct AgentParams {
  sim::Time base_think = sim::Time::sec(3.0);   // per easy step, skilled user
  sim::Time error_recovery = sim::Time::sec(8.0);
  double frustration_per_error = 0.22;
  double frustration_per_minute_waiting = 0.10;
  double frustration_decay_per_step = 0.03;     // success soothes
};

class UserAgent {
 public:
  UserAgent(sim::World& world, std::string name, Faculties faculties);
  UserAgent(sim::World& world, std::string name, Faculties faculties,
            AgentParams params);

  const std::string& name() const { return name_; }
  const Faculties& faculties() const { return faculties_; }
  double frustration() const { return frustration_; }

  /// Attempts the steps in order; `done` fires exactly once. Familiarity
  /// persists across attempts (practice lowers error rates), modelling the
  /// paper's "through training and practice [faculties] can be acquired".
  void attempt(std::vector<ProcedureStep> steps,
               std::function<void(const TaskOutcome&)> done);

  /// Probability this agent errs on a step right now.
  double error_probability(const ProcedureStep& step) const;
  /// Think time for a step right now.
  sim::Time think_time(const ProcedureStep& step) const;

  std::uint64_t total_attempts() const { return attempts_; }

  /// True while an attempt is in flight (started, `done` not yet fired).
  bool attempting() const { return active_runs_ != 0; }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // An attempt in flight is a chain of scheduled closures holding the run
  // state and the completion callback. Between steps — while the agent
  // thinks or recovers from an error — the only pending closure is the
  // agent's own, so it is checkpointable: save() records the run's
  // position and the pending event's identity, and restore() overwrites the
  // structurally rebuilt attempt (same steps, same callback) and re-arms
  // that event. While a step's system action is in flight the agent is not
  // quiescent. The RNG stream, frustration and per-step familiarity
  // round-trip exactly.
  bool snap_quiescent(std::string* why) const;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  struct Run {
    std::vector<ProcedureStep> steps;
    std::size_t index = 0;
    TaskOutcome outcome;
    sim::Time started;
    std::function<void(const TaskOutcome&)> done;
  };
  void run_step(std::shared_ptr<Run> run);
  /// The think time is over: err, or perform the step's system action.
  void act(std::shared_ptr<Run> run);
  /// Schedules the run's next agent-side event (act after `think`, or
  /// run_step after error recovery) and remembers it for save().
  void schedule(sim::Time delay, std::shared_ptr<Run> run, bool recovery);
  sim::Callback wake(std::shared_ptr<Run> run, bool recovery);
  void finish(std::shared_ptr<Run> run, bool success, bool abandoned);
  double familiarity(const std::string& step_name) const;

  sim::World& world_;
  std::string name_;
  Faculties faculties_;
  AgentParams params_;
  sim::Rng rng_;
  double frustration_ = 0.0;
  std::map<std::string, double> familiarity_;  // step name -> 0..1
  std::uint64_t attempts_ = 0;
  int active_runs_ = 0;  // attempts started but not finished
  // The latest attempt and its pending agent-side event (checkpointing).
  std::shared_ptr<Run> current_;
  sim::EventHandle pending_;
  sim::EventCategory pending_category_ = sim::EventCategory::kNone;
  bool pending_recovery_ = false;
};

}  // namespace aroma::user
