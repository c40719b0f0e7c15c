#include "scn/runtime.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "disco/service.hpp"
#include "env/mobility.hpp"
#include "phys/profile.hpp"
#include "sim/fleet.hpp"
#include "sim/random.hpp"
#include "user/faculties.hpp"

namespace aroma::scn {

namespace {
constexpr net::Port kPingPort = 7777;

/// Agent names are part of the RNG contract: UserAgent forks the world RNG
/// with a tag that hashes the name, so the present-goal agent must be
/// "presenter" — the name run_room uses.
const char* agent_name(GoalKind kind) {
  return kind == GoalKind::kPresent ? "presenter" : "explorer";
}
}  // namespace

ScenarioInstance::ScenarioInstance(const Scenario& scenario,
                                   std::size_t shard_id, std::uint64_t seed,
                                   RunOptions options)
    : scn_(scenario), shard_id_(shard_id), seed_(seed), options_(options) {
  world_ = std::make_unique<sim::World>(seed_);
  world_->arena().set_enabled(options_.use_arena);
  world_->sim().set_train_batching(scn_.strategy.kernel_trains);
  env::Environment::Params eparams;
  eparams.arena = env::Rect{{0, 0}, {scn_.topo_w, scn_.topo_h}};
  eparams.path_loss.seed = seed_;
  env_ = std::make_unique<env::Environment>(*world_, eparams);
  build_devices();
  bind_ping_sinks();
  traffic_.resize(scn_.traffic.size());
  goals_.reserve(scn_.goals.size());
}

ScenarioInstance::~ScenarioInstance() = default;

void ScenarioInstance::build_devices() {
  const EvalContext shard_ctx{shard_id_, 0};
  for (const EntityDecl& e : scn_.entities) {
    const auto count = static_cast<std::size_t>(
        std::max(0.0, eval(*e.count, shard_ctx)));
    entity_stacks_.emplace_back(stacks_.size(), count);
    phys::DeviceProfile profile;
    if (!phys::profiles::by_name(e.profile, &profile)) {
      throw ScnError("unknown device profile '" + e.profile + "'");
    }
    for (std::size_t i = 0; i < count; ++i) {
      const EvalContext ctx{shard_id_, i};
      const env::Vec2 pos{eval(*e.pos_x, ctx), eval(*e.pos_y, ctx)};
      phys::Device::Options opt;
      opt.channel = static_cast<int>(eval(*e.channel, ctx));
      const std::uint64_t id = devices_.size() + 1;
      devices_.push_back(std::make_unique<phys::Device>(
          *world_, *env_, id, profile,
          std::make_unique<env::StaticMobility>(pos), opt));
      stacks_.push_back(
          std::make_unique<net::NetStack>(*world_, devices_.back()->mac()));
    }
  }
}

void ScenarioInstance::bind_ping_sinks() {
  std::set<int> bound;
  for (const TrafficDecl& t : scn_.traffic) {
    if (t.kind != TrafficKind::kPing) continue;
    if (!bound.insert(t.to.index).second) continue;
    stack_of(t.to.index)
        .bind(kPingPort, [this](const net::Datagram&) { ++pings_; });
  }
}

void ScenarioInstance::build_services() {
  for (const RegistrarDecl& r : scn_.registrars) {
    registrars_.push_back(
        std::make_unique<disco::JiniRegistrar>(*world_, stack_of(r.on.index)));
  }
  for (const ProjectorDecl& p : scn_.projectors) {
    ProjectorRuntime rt;
    rt.projector =
        std::make_unique<app::SmartProjector>(*world_, stack_of(p.on.index));
    rt.jini =
        std::make_unique<disco::JiniClient>(*world_, stack_of(p.on.index));
    projectors_.push_back(std::move(rt));
  }
  for (const GoalDecl& g : scn_.goals) {
    actor_jinis_.push_back(
        std::make_unique<disco::JiniClient>(*world_, stack_of(g.actor.index)));
  }
  for (const DisplayDecl& d : scn_.displays) {
    const EvalContext ctx{shard_id_, 0};
    DisplayRuntime rt;
    rt.entity = d.on.index;
    rt.display = std::make_unique<app::PresenterDisplay>(
        *world_, stack_of(d.on.index),
        static_cast<int>(eval(*d.width, ctx)),
        static_cast<int>(eval(*d.height, ctx)));
    // World-free construction: the deck costs no RNG draws, so owning it
    // next to its display cannot perturb the canonical fork sequence.
    rt.deck = std::make_unique<rfb::SlideDeckWorkload>(
        static_cast<std::uint64_t>(eval(*d.deck_seed, ctx)));
    displays_.push_back(std::move(rt));
  }
  for (ProjectorRuntime& p : projectors_) {
    p.projector->export_services(*p.jini, {});
  }
}

void ScenarioInstance::start_goals() {
  for (std::size_t g = 0; g < scn_.goals.size(); ++g) {
    const GoalDecl& decl = scn_.goals[g];
    goals_.emplace_back();
    GoalRuntime& rt = goals_.back();

    user::Faculties persona;
    if (!user::personas::by_name(decl.persona, &persona)) {
      throw ScnError("unknown persona '" + decl.persona + "'");
    }

    std::vector<user::ProcedureStep> procedure;
    if (decl.kind == GoalKind::kPresent) {
      rt.client = std::make_unique<app::ProjectorClient>(
          *world_, stack_of(decl.actor.index),
          stack_of(scn_.projectors.front().on.index).node_id(),
          app::kProjectionPort);
      DisplayRuntime* disp = display_on(decl.actor.index);
      if (disp == nullptr) {
        throw ScnError("present goal actor has no display");
      }
      rt.agent = std::make_unique<user::UserAgent>(
          *world_, agent_name(decl.kind), persona);

      app::PresenterDisplay* display = disp->display.get();
      rfb::SlideDeckWorkload* deck = disp->deck.get();
      disco::JiniClient* jini = actor_jinis_[g].get();
      app::ProjectorClient* client = rt.client.get();
      const net::NodeId actor_node = stack_of(decl.actor.index).node_id();
      procedure.push_back({"start-vnc-server",
                           [display, deck](std::function<void(bool)> done) {
                             display->start_server();
                             deck->step(display->screen());
                             done(true);
                           },
                           0.4, false});
      procedure.push_back(
          {"discover-service",
           [jini](std::function<void(bool)> done) {
             jini->lookup(disco::ServiceTemplate{app::kProjectionType, {}},
                          [done](std::vector<disco::ServiceDescription> s) {
                            done(!s.empty());
                          });
           },
           0.5, false});
      procedure.push_back({"acquire-projection",
                           [client](std::function<void(bool)> done) {
                             client->acquire(std::move(done));
                           },
                           0.5, false});
      procedure.push_back({"start-projection",
                           [client, actor_node](std::function<void(bool)> done) {
                             client->start_projection(actor_node,
                                                      std::move(done));
                           },
                           0.6, false});
    } else {
      rt.agent = std::make_unique<user::UserAgent>(
          *world_, agent_name(decl.kind), persona);
      disco::JiniClient* jini = actor_jinis_[g].get();
      procedure.push_back(
          {"discover-service",
           [jini](std::function<void(bool)> done) {
             jini->lookup(disco::ServiceTemplate{app::kProjectionType, {}},
                          [done](std::vector<disco::ServiceDescription> s) {
                            done(!s.empty());
                          });
           },
           0.5, false});
    }

    rt.agent->attempt(std::move(procedure),
                      [this, g](const user::TaskOutcome& o) {
                        goals_[g].outcome = o;
                        if (g == 0) first_outcome_ = o;
                      });
  }
}

void ScenarioInstance::arm_train(std::size_t traffic_index, sim::Time when,
                                 sim::Time period) {
  traffic_[traffic_index].train_next = world_->sim().schedule_at(
      when, sim::EventCategory::kTimer, [this, traffic_index, when, period] {
        const TrafficDecl& t = scn_.traffic[traffic_index];
        const std::size_t members = member_count(t.from.index);
        // Pre-schedule the whole tick as one same-time burst: every
        // member's send parks at `when`, and the kernel's train batching
        // absorbs the burst instead of heap-pushing each event.
        for (std::size_t m = 0; m < members; ++m) {
          world_->sim().schedule_at(
              when, sim::EventCategory::kTimer,
              [this, traffic_index, m] { send_ping(traffic_index, m); });
        }
        arm_train(traffic_index, when + period, period);
      });
}

void ScenarioInstance::send_ping(std::size_t traffic_index,
                                 std::size_t member) {
  const TrafficDecl& t = scn_.traffic[traffic_index];
  const auto payload = static_cast<std::size_t>(
      eval(*t.payload, EvalContext{shard_id_, member}));
  stack_of(t.from.index, member)
      .send({stack_of(t.to.index).node_id(), kPingPort}, kPingPort,
            std::vector<std::byte>(payload, std::byte{0x5a}), {});
}

void ScenarioInstance::start_traffic() {
  for (std::size_t ti = 0; ti < scn_.traffic.size(); ++ti) {
    const TrafficDecl& t = scn_.traffic[ti];
    if (t.kind == TrafficKind::kPing) {
      const std::size_t members = member_count(t.from.index);
      if (members == 0) continue;
      if (t.train_lowered) {
        const sim::Time period =
            sim::Time::sec(eval(*t.period, EvalContext{shard_id_, 0}));
        arm_train(ti, world_->now() + period, period);
      } else {
        for (std::size_t m = 0; m < members; ++m) {
          const double period = eval(*t.period, EvalContext{shard_id_, m});
          traffic_[ti].timers.push_back(std::make_unique<sim::PeriodicTimer>(
              world_->sim(), sim::Time::sec(period),
              [this, ti, m] { send_ping(ti, m); }));
          traffic_[ti].timers.back()->start();
        }
      }
    } else {
      DisplayRuntime* disp = display_on(t.from.index);
      if (disp == nullptr) throw ScnError("slides traffic without a display");
      app::PresenterDisplay* display = disp->display.get();
      rfb::SlideDeckWorkload* deck = disp->deck.get();
      traffic_[ti].timers.push_back(std::make_unique<sim::PeriodicTimer>(
          world_->sim(),
          sim::Time::sec(eval(*t.period, EvalContext{shard_id_, 0})),
          [display, deck] { display->apply(*deck); }));
      traffic_[ti].timers.back()->start();
    }
  }
}

void ScenarioInstance::stop_traffic() {
  // Reverse declaration order — run_room stops its slides timer before its
  // pingers, and cancel order feeds the cancelled-event counter the
  // fingerprint chain observes via executed().
  for (std::size_t k = scn_.traffic.size(); k-- > 0;) {
    if (traffic_[k].train_next.valid()) {
      world_->sim().cancel(traffic_[k].train_next);
      traffic_[k].train_next = sim::EventHandle{};
    }
    for (auto& timer : traffic_[k].timers) timer->stop();
  }
}

void ScenarioInstance::run() {
  if (ran_) throw ScnError("ScenarioInstance::run called twice");
  ran_ = true;
  const EvalContext ctx{shard_id_, 0};
  const auto settle = sim::Time::sec(eval(*scn_.phases.settle, ctx));
  const auto meeting = sim::Time::sec(eval(*scn_.phases.meeting, ctx));
  const auto horizon = sim::Time::sec(eval(*scn_.phases.horizon, ctx));
  const auto drain = sim::Time::sec(eval(*scn_.phases.drain, ctx));

  build_services();
  world_->sim().run_until(settle);
  start_goals();
  world_->sim().run_until(meeting);
  start_traffic();
  world_->sim().run_until(horizon);
  stop_traffic();
  world_->sim().run_until(horizon + drain);
}

sim::RoomOutcome ScenarioInstance::room_outcome() const {
  const env::MediumStats& m = env_->medium().stats();
  sim::RoomOutcome o;
  o.transmissions = m.transmissions;
  o.deliveries_attempted = m.deliveries_attempted;
  o.deliveries_decodable = m.deliveries_decodable;
  o.losses_sinr = m.losses_sinr;
  o.losses_half_duplex = m.losses_half_duplex;
  o.pings = pings_;
  for (const auto& r : registrars_) o.registered += r->registered_count();
  o.success = first_outcome_.success;
  o.steps_completed = first_outcome_.steps_completed;
  o.errors = first_outcome_.errors;
  for (const ProjectorRuntime& p : projectors_) {
    if (p.projector->viewer() != nullptr) {
      o.viewer_updates += p.projector->viewer()->stats().updates_received;
    }
  }
  return o;
}

std::uint64_t ScenarioInstance::fingerprint() const {
  return sim::room_fingerprint(seed_, world_->sim().executed(),
                               room_outcome());
}

std::uint64_t ScenarioInstance::outcome_fingerprint() const {
  return sim::room_outcome_fingerprint(seed_, room_outcome());
}

std::uint64_t ScenarioInstance::events() const {
  return world_->sim().executed();
}
std::uint64_t ScenarioInstance::absorbed() const {
  return world_->sim().absorbed();
}
std::uint64_t ScenarioInstance::pings() const { return pings_; }

net::NetStack& ScenarioInstance::stack_of(int entity, std::size_t member) {
  const auto& [base, count] = entity_stacks_[static_cast<std::size_t>(entity)];
  if (member >= count) {
    throw ScnError("entity '" +
                   scn_.entities[static_cast<std::size_t>(entity)].name +
                   "' has no member " + std::to_string(member) +
                   " on shard " + std::to_string(shard_id_));
  }
  return *stacks_[base + member];
}

std::size_t ScenarioInstance::member_count(int entity) const {
  return entity_stacks_[static_cast<std::size_t>(entity)].second;
}

ScenarioInstance::DisplayRuntime* ScenarioInstance::display_on(int entity) {
  for (DisplayRuntime& d : displays_) {
    if (d.entity == entity) return &d;
  }
  return nullptr;
}

FleetResult run_fleet(const Scenario& scenario, std::size_t shards,
                      std::uint64_t seed, std::size_t workers,
                      RunOptions options) {
  // Cost-model placement: launch heavier shard classes first so stragglers
  // start early and the work-stealing tail stays short. A permutation of
  // launch order only — results fold in shard order, so the fingerprint
  // cannot depend on it (or on the worker count).
  std::vector<std::size_t> order(shards);
  std::iota(order.begin(), order.end(), 0);
  const Strategy& strat = scenario.strategy;
  if (strat.class_modulus > 1 &&
      strat.class_cost.size() == strat.class_modulus) {
    std::stable_sort(order.begin(), order.end(),
                     [&strat](std::size_t a, std::size_t b) {
                       return strat.class_cost[a % strat.class_modulus] >
                              strat.class_cost[b % strat.class_modulus];
                     });
  }

  struct ShardResult {
    std::uint64_t fp = 0, events = 0, absorbed = 0, pings = 0;
    bool succeeded = false;
  };
  std::vector<ShardResult> results(shards);
  sim::WorkStealingPool::run(
      workers, shards, [&](std::size_t index, std::size_t) {
        const std::size_t shard = order[index];
        ScenarioInstance inst(scenario, shard, sim::shard_seed(seed, shard),
                              options);
        inst.run();
        ShardResult r;
        r.fp = inst.fingerprint();
        r.events = inst.events();
        r.absorbed = inst.absorbed();
        r.pings = inst.pings();
        r.succeeded = inst.outcome().success;
        results[shard] = r;
      });

  FleetResult out;
  out.shard_fps.reserve(shards);
  for (const ShardResult& r : results) {
    out.shard_fps.push_back(r.fp);
    out.events += r.events;
    out.absorbed += r.absorbed;
    out.pings += r.pings;
    out.goals_succeeded += r.succeeded ? 1 : 0;
  }
  out.fleet_fp = sim::fleet_fingerprint(out.shard_fps);
  return out;
}

}  // namespace aroma::scn
