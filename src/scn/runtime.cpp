#include "scn/runtime.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "disco/service.hpp"
#include "env/mobility.hpp"
#include "lpc/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "phys/profile.hpp"
#include "sim/fleet.hpp"
#include "sim/random.hpp"
#include "user/faculties.hpp"

namespace aroma::scn {

namespace {
constexpr net::Port kPingPort = 7777;

// Checkpoint section tags, in registration (= restore) order.
constexpr std::uint32_t kTagSim = snap::tag4("SIM!");
constexpr std::uint32_t kTagRoom = snap::tag4("ROOM");
constexpr std::uint32_t kTagMedium = snap::tag4("MEDM");
constexpr std::uint32_t kTagPhys = snap::tag4("PHYS");
constexpr std::uint32_t kTagNet = snap::tag4("NETS");
constexpr std::uint32_t kTagStream = snap::tag4("STRM");
constexpr std::uint32_t kTagDisco = snap::tag4("DISC");
constexpr std::uint32_t kTagSession = snap::tag4("SESS");
constexpr std::uint32_t kTagRfb = snap::tag4("RFBC");
constexpr std::uint32_t kTagPixels = snap::tag4("PIXL");
constexpr std::uint32_t kTagUser = snap::tag4("USER");
constexpr std::uint32_t kTagMetrics = snap::tag4("OBSM");
constexpr std::uint32_t kTagSpans = snap::tag4("OBSS");

/// Agent names are part of the RNG contract: UserAgent forks the world RNG
/// with a tag that hashes the name, so the present-goal agent is always
/// "presenter".
const char* agent_name(GoalKind kind) {
  return kind == GoalKind::kPresent ? "presenter" : "explorer";
}
}  // namespace

ScenarioInstance::ScenarioInstance(const Scenario& scenario,
                                   std::size_t shard_id, std::uint64_t seed,
                                   RunOptions options)
    : scn_(scenario), shard_id_(shard_id), seed_(seed), options_(options) {
  const EvalContext ctx{shard_id_, 0};
  settle_ = sim::Time::sec(eval(*scn_.phases.settle, ctx));
  meeting_ = sim::Time::sec(eval(*scn_.phases.meeting, ctx));
  horizon_ = sim::Time::sec(eval(*scn_.phases.horizon, ctx));
  drain_ = sim::Time::sec(eval(*scn_.phases.drain, ctx));
  world_ = std::make_unique<sim::World>(seed_);
  world_->arena().set_enabled(options_.use_arena);
  world_->sim().set_train_batching(scn_.strategy.kernel_trains);
  if (options_.telemetry) {
    telemetry_ = std::make_unique<obs::Telemetry>(*world_);
  }
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
                      });
  }
}

void ScenarioInstance::arm_train(std::size_t traffic_index, sim::Time when,
                                 sim::Time period) {
  traffic_[traffic_index].train_next = world_->sim().schedule_at(
      when, sim::EventCategory::kTimer, [this, traffic_index, when, period] {
        train_tick(traffic_index, when, period);
      });
}

void ScenarioInstance::train_tick(std::size_t traffic_index, sim::Time when,
                                  sim::Time period) {
  const TrafficDecl& t = scn_.traffic[traffic_index];
  const std::size_t members = member_count(t.from.index);
  // Pre-schedule the whole tick as one same-time burst: every member's
  // send parks at `when`, and the kernel's train batching absorbs the
  // burst instead of heap-pushing each event.
  for (std::size_t m = 0; m < members; ++m) {
    world_->sim().schedule_at(
        when, sim::EventCategory::kTimer,
        [this, traffic_index, m] { send_ping(traffic_index, m); });
  }
  arm_train(traffic_index, when + period, period);
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
  // Reverse declaration order (the Smart Projector room stops its slides
  // timer before its pingers): cancel order feeds the cancelled-event
  // counter a checkpoint carries.
  for (std::size_t k = scn_.traffic.size(); k-- > 0;) {
    if (traffic_[k].train_next.valid()) {
      world_->sim().cancel(traffic_[k].train_next);
      traffic_[k].train_next = sim::EventHandle{};
    }
    for (auto& timer : traffic_[k].timers) timer->stop();
  }
}

void ScenarioInstance::start() {
  if (started_) throw ScnError("ScenarioInstance started twice");
  started_ = true;
  build_services();
  world_->sim().run_until(settle_);
  start_goals();
  world_->sim().run_until(meeting_);
  start_traffic();
}

void ScenarioInstance::finish() {
  if (!started_) throw ScnError("ScenarioInstance::finish before start");
  world_->sim().run_until(horizon_);
  stop_traffic();
  world_->sim().run_until(end_time());
}

void ScenarioInstance::run() {
  start();
  finish();
}

void ScenarioInstance::warmup() {
  start();
  warmed_up_ = true;
  register_sections();
  // Structural settle: advance to the first quiescent instant at which
  // every present procedure has completed. Checkpoints are only taken at
  // quiescent points, and a present procedure creates structure (the RFB
  // server, stream and viewer) until it completes — which slow seeds do
  // after the meeting start. Stopping there guarantees every handler,
  // connection, and timer the checkpointed run could have had at its
  // capture point exists here too, so restore only ever overwrites logical
  // state. Discover procedures build nothing, so they may still be in
  // flight. Deterministic: the settle point is a pure function of the seed.
  const auto settled = [this](std::string* why) {
    for (const GoalRuntime& g : goals_) {
      if (g.client != nullptr && g.agent->attempting()) {
        *why = "present procedure still building the session";
        return false;
      }
    }
    return registry_.quiescent(why);
  };
  std::string why;
  while (!settled(&why)) {
    if (world_->now() >= end_time()) {
      throw snap::SnapError("warmup never reached a quiescent point: " + why);
    }
    world_->sim().run_until(world_->now() + sim::Time::ms(1));
  }
}

void ScenarioInstance::run_until(sim::Time t) { world_->sim().run_until(t); }

sim::Time ScenarioInstance::now() const { return world_->now(); }

namespace {

// A section body is written once, as a generic lambda over `io`, and runs
// in both directions: Save drives a SectionWriter, Load a SectionReader.
// Components expose save(w)/restore(r) (and save_cache/restore_cache for
// the bulky RFB state); counts and presence flags of structural pieces are
// written on save and checked on load, so a rebuilt world that diverged
// from the captured one fails loudly instead of being misread.
struct Save {
  snap::SectionWriter& w;
  const sim::Simulator& sim;
  template <typename T>
  void operator()(T& c) { c.save(w); }
  template <typename T>
  void cache(T& c) { c.save_cache(w); }
  void field(std::uint64_t& v) { w.u64(v); }
  void field(bool& v) { w.b(v); }
  void field(double& v) { w.f64(v); }
  void field(sim::Time& v) { w.duration(v); }
  void count(std::size_t n, const char*) { w.u64(n); }
  bool present(const void* p, const char*) {
    w.b(p != nullptr);
    return p != nullptr;
  }
  /// A pending event by its (when, seq, id) identity.
  template <typename Rearm>
  void pending(sim::EventHandle& h, Rearm&&) {
    const sim::Simulator::PendingEventInfo e = sim.pending_event_info(h);
    w.b(e.valid);
    if (!e.valid) return;
    w.time_delta(e.when);
    w.u64(e.seq);
    w.u64(e.id);
  }
};

struct Load {
  snap::SectionReader& r;
  template <typename T>
  void operator()(T& c) { c.restore(r); }
  template <typename T>
  void cache(T& c) { c.restore_cache(r); }
  void field(std::uint64_t& v) { v = r.u64(); }
  void field(bool& v) { v = r.b(); }
  void field(double& v) { v = r.f64(); }
  void field(sim::Time& v) { v = r.duration(); }
  void count(std::size_t n, const char* what) {
    if (r.u64() != n) {
      throw snap::SnapError(std::string(what) +
                            " count mismatch: structural rebuild diverged");
    }
  }
  bool present(const void* p, const char* what) {
    if (r.b() != (p != nullptr)) {
      throw snap::SnapError(std::string(what) + " presence mismatch");
    }
    return p != nullptr;
  }
  /// Re-arms the event with its saved identity. The warmup-armed event is
  /// already gone (clear_pending), so the handle is overwritten, never
  /// cancelled — as PeriodicTimer::restore does.
  template <typename Rearm>
  void pending(sim::EventHandle& h, Rearm&& rearm) {
    h = sim::EventHandle{};
    if (!r.b()) return;
    const sim::Time when = r.time_delta();
    const std::uint64_t seq = r.u64();
    h = rearm(when, seq, r.u64());
  }
};

}  // namespace

template <typename Body>
void ScenarioInstance::add_section(std::uint32_t tag, const char* name,
                                   Body body, std::uint32_t flags) {
  registry_.add(
      tag, name,
      [this, body](snap::SectionWriter& w) {
        Save io{w, world_->sim()};
        body(io);
      },
      [body](snap::SectionReader& r, const snap::RestoreCtx&) {
        Load io{r};
        body(io);
      },
      flags);
}

void ScenarioInstance::register_sections() {
  // SIM! — kernel clock + identity counters + the root RNG. The absolute
  // capture clock is the section's FIRST field so restore() can learn the
  // capture instant before constructing the rebased readers.
  registry_.add(
      kTagSim, "sim",
      [this](snap::SectionWriter& w) {
        const sim::Simulator& s = world_->sim();
        w.duration(s.now());  // absolute, deliberately not rebased
        w.u64(s.next_seq());
        w.u64(s.next_id());
        w.u64(s.executed());
        w.u64(s.cancelled());
        w.u64(s.stale_handle_rejects());
        w.u64(s.peak_pending());
        const sim::Rng::State st = world_->rng().state();
        for (int i = 0; i < 4; ++i) w.u64(st.s[i]);
        w.f64(st.cached_normal);
        w.b(st.has_cached_normal);
      },
      [this](snap::SectionReader& r, const snap::RestoreCtx& ctx) {
        (void)r.duration();  // capture clock; already folded into ctx.now
        const std::uint64_t next_seq = r.u64();
        const std::uint64_t next_id = r.u64();
        const std::uint64_t executed = r.u64();
        const std::uint64_t cancelled = r.u64();
        const std::uint64_t stale = r.u64();
        const auto peak = static_cast<std::size_t>(r.u64());
        world_->sim().restore_state(ctx.now, next_seq, next_id, executed,
                                    cancelled, stale, peak);
        sim::Rng::State st;
        for (int i = 0; i < 4; ++i) st.s[i] = r.u64();
        st.cached_normal = r.f64();
        st.has_cached_normal = r.b();
        world_->rng().set_state(st);
      });

  // ROOM — scenario-level state: ping tally, per-goal outcomes, the slide
  // deck generators, and per traffic declaration its timers and the train
  // generator's pending tick.
  add_section(kTagRoom, "room", [this](auto& io) {
    io.field(pings_);
    io.count(goals_.size(), "goal");
    for (GoalRuntime& g : goals_) {
      user::TaskOutcome& o = g.outcome;
      io.field(o.success);
      io.field(o.abandoned);
      io.field(o.steps_completed);
      io.field(o.errors);
      io.field(o.final_frustration);
      io.field(o.duration);
    }
    io.count(displays_.size(), "display");
    for (DisplayRuntime& d : displays_) io(*d.deck);
    io.count(traffic_.size(), "traffic");
    for (std::size_t ti = 0; ti < traffic_.size(); ++ti) {
      io.count(traffic_[ti].timers.size(), "traffic timer");
      for (auto& timer : traffic_[ti].timers) io(*timer);
      io.pending(traffic_[ti].train_next, [this, ti](sim::Time when,
                                                     std::uint64_t seq,
                                                     std::uint64_t id) {
        const sim::Time period = sim::Time::sec(
            eval(*scn_.traffic[ti].period, EvalContext{shard_id_, 0}));
        return world_->sim().restore_event(
            when, seq, id, sim::EventCategory::kTimer,
            [this, ti, when, period] { train_tick(ti, when, period); });
      });
    }
  });

  add_section(kTagMedium, "medium",
              [this](auto& io) { io(env_->medium()); });

  // PHYS — per device, construction order: battery, transceiver, MAC.
  add_section(kTagPhys, "phys", [this](auto& io) {
    io.count(devices_.size(), "device");
    for (auto& d : devices_) {
      if (io.present(d->has_battery() ? d.get() : nullptr, "battery")) {
        io(d->battery());
      }
      if (io.present(d->has_radio() ? d.get() : nullptr, "radio")) {
        io(d->radio());
        io(d->mac());
      }
    }
  });

  add_section(kTagNet, "net", [this](auto& io) {
    io.count(stacks_.size(), "stack");
    for (auto& s : stacks_) io(*s);
  });

  // STRM — every display's stream manager (RFB server side), then every
  // projector's (viewer side). Connection identity is structural;
  // StreamManager::restore matches serialized connections 1:1 against the
  // warmed-up set by key.
  add_section(kTagStream, "stream", [this](auto& io) {
    for (DisplayRuntime& d : displays_) {
      net::StreamManager* m = d.display->stream_manager();
      if (io.present(m, "display stream manager")) io(*m);
    }
    for (ProjectorRuntime& p : projectors_) {
      net::StreamManager* m = p.projector->stream_manager();
      if (io.present(m, "projector stream manager")) io(*m);
    }
  });

  // DISC — registrars, then each projector's export-side client, then the
  // goal actors' clients: construction order.
  add_section(kTagDisco, "disco", [this](auto& io) {
    for (auto& reg : registrars_) io(*reg);
    for (ProjectorRuntime& p : projectors_) io(*p.jini);
    for (auto& j : actor_jinis_) io(*j);
  });

  add_section(kTagSession, "session", [this](auto& io) {
    for (ProjectorRuntime& p : projectors_) io(*p.projector);
    for (GoalRuntime& g : goals_) {
      if (g.client != nullptr) io(*g.client);
    }
  });

  // RFBC — protocol control state (request flags, stats, poll timer). Kept
  // separate from PIXL so steady-state incremental checkpoints stay small:
  // control churns every poll, pixels only churn on slide flips.
  add_section(kTagRfb, "rfb", [this](auto& io) {
    for (DisplayRuntime& d : displays_) {
      rfb::RfbServer* srv = d.display->server_mutable();
      if (io.present(srv, "rfb server")) io(*srv);
    }
    for (ProjectorRuntime& p : projectors_) {
      rfb::RfbClient* viewer = p.projector->viewer_client();
      if (io.present(viewer, "rfb viewer")) io(*viewer);
    }
  });

  // PIXL — the bulky, slow-churn payload: each display's screen, its
  // cached-encoding state and its server's cache, then each viewer's
  // replica + tile cache.
  add_section(kTagPixels, "pixels", [this](auto& io) {
    for (DisplayRuntime& d : displays_) {
      io(d.display->screen());
      io(*d.display);
      rfb::RfbServer* srv = d.display->server_mutable();
      if (io.present(srv, "rfb server cache")) io.cache(*srv);
    }
    for (ProjectorRuntime& p : projectors_) {
      rfb::RfbClient* viewer = p.projector->viewer_client();
      if (io.present(viewer, "rfb viewer cache")) io.cache(*viewer);
    }
  });

  add_section(kTagUser, "user", [this](auto& io) {
    for (GoalRuntime& g : goals_) io(*g.agent);
  });

  // Telemetry sections are optional both ways: a telemetry-off reader skips
  // them in a telemetry-on blob, and vice versa.
  if (telemetry_ != nullptr) {
    add_section(
        kTagMetrics, "metrics",
        [this](auto& io) { io(telemetry_->metrics()); },
        snap::kSectionOptional);
    add_section(
        kTagSpans, "spans", [this](auto& io) { io(telemetry_->spans()); },
        snap::kSectionOptional);
  }

  // Quiescence: every core that can hold an un-reconstructible in-flight
  // closure vetoes checkpointing until it drains.
  registry_.add_quiescence([this](std::string* why) {
    const auto ok = [why](const auto* c) {
      return c == nullptr || c->snap_quiescent(why);
    };
    if (!env_->medium().snap_quiescent(why)) return false;
    for (const auto& d : devices_) {
      if (d->has_radio() && !d->mac().snap_quiescent(why)) return false;
    }
    for (const DisplayRuntime& d : displays_) {
      if (!ok(d.display->stream_manager()) ||
          !ok(d.display->server_mutable())) {
        return false;
      }
    }
    for (const ProjectorRuntime& p : projectors_) {
      if (!ok(p.projector->stream_manager()) || !ok(p.jini.get()) ||
          !ok(p.projector->viewer_client())) {
        return false;
      }
    }
    for (const auto& j : actor_jinis_) {
      if (!ok(j.get())) return false;
    }
    for (const GoalRuntime& g : goals_) {
      if (!ok(g.client.get()) || !ok(g.agent.get())) return false;
    }
    return true;
  });
}

std::vector<std::uint8_t> ScenarioInstance::checkpoint() {
  if (!warmed_up_) throw snap::SnapError("checkpoint before warmup");
  std::string why;
  if (!registry_.quiescent(&why)) {
    throw snap::SnapError("checkpoint at non-quiescent point: " + why);
  }
  return registry_.save_all(world_->now());
}

void ScenarioInstance::restore(std::span<const std::uint8_t> blob,
                               sim::Time gap) {
  if (!warmed_up_) throw snap::SnapError("restore before warmup");
  obs::Counter* errors =
      obs::counter(*world_, "snap.restore_errors", lpc::Layer::kPhysical);
  try {
    const snap::SnapReader reader(blob);
    const snap::SectionView* simsec = reader.find(kTagSim);
    if (simsec == nullptr) {
      throw snap::SnapError("blob is missing the SIM section");
    }
    snap::SectionReader peek(simsec->payload, sim::Time::zero());
    const sim::Time captured = peek.duration();
    snap::RestoreCtx ctx;
    ctx.gap = gap;
    ctx.now = captured + gap;
    if (ctx.now < world_->now()) {
      throw snap::SnapError(
          "restore would move the clock backwards past warmup");
    }
    // Drop the warmup's pending events; each section re-arms the saved set
    // with original (when, seq, id) identities.
    world_->sim().clear_pending();
    registry_.restore_all(reader, ctx);
  } catch (const snap::SnapError&) {
    if (errors != nullptr) errors->add();
    throw;
  }
  ++restores_;
  if (obs::Counter* c =
          obs::counter(*world_, "snap.restores", lpc::Layer::kPhysical)) {
    c->add();
  }
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
  const user::TaskOutcome& first = outcome();
  o.success = first.success;
  o.steps_completed = first.steps_completed;
  o.errors = first.errors;
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

const user::TaskOutcome& ScenarioInstance::outcome() const {
  static const user::TaskOutcome kNone{};
  return goals_.empty() ? kNone : goals_.front().outcome;
}

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
