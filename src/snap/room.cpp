#include "snap/room.hpp"

#include <functional>
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

namespace aroma::snap {

namespace {
constexpr net::Port kPingPort = 7777;
}  // namespace

Room::Room(std::size_t shard_id, std::uint64_t seed, RoomOptions options)
    : shard_id_(shard_id), seed_(seed), options_(options) {
  world_ = std::make_unique<sim::World>(seed_);
  world_->arena().set_enabled(options_.use_arena);
  if (options_.telemetry) {
    telemetry_ = std::make_unique<obs::Telemetry>(*world_);
  }
  env::Environment::Params eparams;
  eparams.path_loss.seed = seed_;
  env_ = std::make_unique<env::Environment>(*world_, eparams);
}

Room::~Room() = default;

sim::Time Room::horizon() const {
  const std::size_t extras = shard_id_ % 5;
  return sim::Time::sec(55.0 + 10.0 * static_cast<double>(extras));
}

sim::Time Room::end_time() const { return horizon() + sim::Time::sec(2.0); }

sim::Time Room::now() const { return world_->now(); }

void Room::run_until(sim::Time t) { world_->sim().run_until(t); }

void Room::warmup() {
  if (warmed_up_) throw SnapError("Room::warmup called twice");
  warmed_up_ = true;

  // Component construction in fleet_bench::run_room's exact order — the
  // sequence of RNG forks, port binds, and scheduled events during setup is
  // part of the deterministic contract a restore relies on.
  auto add = [&](phys::DeviceProfile profile, env::Vec2 pos) {
    const std::uint64_t id = devices_.size() + 1;
    phys::Device::Options opt;
    opt.channel = 6;
    devices_.push_back(std::make_unique<phys::Device>(
        *world_, *env_, id, std::move(profile),
        std::make_unique<env::StaticMobility>(pos), opt));
    stacks_.push_back(
        std::make_unique<net::NetStack>(*world_, devices_.back()->mac()));
    return stacks_.size() - 1;
  };

  reg_ = add(phys::profiles::desktop_pc_with_radio(), {0, 12});
  adapter_ = add(phys::profiles::aroma_adapter(), {0, 0});
  laptop_ = add(phys::profiles::laptop(), {8, 0});
  const std::size_t extras = shard_id_ % 5;
  for (std::size_t i = 0; i < extras; ++i) {
    extra_nodes_.push_back(
        add(phys::profiles::laptop(), {3.0 + 2.5 * static_cast<double>(i), 6.0}));
  }

  stacks_[reg_]->bind(kPingPort, [this](const net::Datagram&) { ++pings_; });

  registrar_ = std::make_unique<disco::JiniRegistrar>(*world_, *stacks_[reg_]);
  projector_ = std::make_unique<app::SmartProjector>(*world_, *stacks_[adapter_]);
  adapter_jini_ = std::make_unique<disco::JiniClient>(*world_, *stacks_[adapter_]);
  laptop_jini_ = std::make_unique<disco::JiniClient>(*world_, *stacks_[laptop_]);
  display_ = std::make_unique<app::PresenterDisplay>(*world_, *stacks_[laptop_],
                                                     64, 48);
  projector_->export_services(*adapter_jini_, {});
  world_->sim().run_until(sim::Time::sec(3.0));

  proj_client_ = std::make_unique<app::ProjectorClient>(
      *world_, *stacks_[laptop_], stacks_[adapter_]->node_id(),
      app::kProjectionPort);
  deck_ = std::make_unique<rfb::SlideDeckWorkload>(3);
  presenter_ = std::make_unique<user::UserAgent>(
      *world_, "presenter", user::personas::computer_scientist());

  std::vector<user::ProcedureStep> procedure;
  procedure.push_back({"start-vnc-server",
                       [this](std::function<void(bool)> done) {
                         display_->start_server();
                         deck_->step(display_->screen());
                         done(true);
                       },
                       0.4, false});
  procedure.push_back({"discover-service",
                       [this](std::function<void(bool)> done) {
                         laptop_jini_->lookup(
                             disco::ServiceTemplate{app::kProjectionType, {}},
                             [done](std::vector<disco::ServiceDescription> s) {
                               done(!s.empty());
                             });
                       },
                       0.5, false});
  procedure.push_back({"acquire-projection",
                       [this](std::function<void(bool)> done) {
                         proj_client_->acquire(std::move(done));
                       },
                       0.5, false});
  procedure.push_back({"start-projection",
                       [this](std::function<void(bool)> done) {
                         proj_client_->start_projection(
                             stacks_[laptop_]->node_id(), std::move(done));
                       },
                       0.6, false});
  presenter_->attempt(std::move(procedure),
                      [this](const user::TaskOutcome& o) { outcome_ = o; });
  world_->sim().run_until(setup_time());

  for (std::size_t i = 0; i < extra_nodes_.size(); ++i) {
    net::NetStack* s = stacks_[extra_nodes_[i]].get();
    pingers_.push_back(std::make_unique<sim::PeriodicTimer>(
        world_->sim(), sim::Time::sec(0.4 + 0.1 * static_cast<double>(i)),
        [s, hub = stacks_[reg_]->node_id()] {
          s->send({hub, kPingPort}, kPingPort,
                  std::vector<std::byte>(24, std::byte{0x5a}), {});
        }));
    pingers_.back()->start();
  }
  slides_ = std::make_unique<sim::PeriodicTimer>(
      world_->sim(), sim::Time::sec(4.0), [this] { display_->apply(*deck_); });
  slides_->start();

  register_sections();

  // Structural settle: advance to the first quiescent instant. Checkpoints
  // are only taken at quiescent points, and the workload creates structure
  // (the RFB stream, viewer, server) up until the presenter's procedure
  // completes — which slow seeds finish after setup_time(). Stopping at the
  // first quiescent instant guarantees every handler, connection, and timer
  // the checkpointed run could have had at its capture point exists here
  // too, so restore only ever overwrites logical state. Deterministic: the
  // settle point is a pure function of the seed.
  std::string why;
  while (!registry_.quiescent(&why)) {
    if (world_->now() >= end_time()) {
      throw SnapError("warmup never reached a quiescent point: " + why);
    }
    world_->sim().run_until(world_->now() + sim::Time::ms(1));
  }
}

void Room::finish() {
  run_until(horizon());
  slides_->stop();
  for (auto& p : pingers_) p->stop();
  run_until(end_time());
}

void Room::register_sections() {
  // SIM! — kernel clock + identity counters + the root RNG. The absolute
  // capture clock is the section's FIRST field so Room::restore can learn
  // the capture instant before constructing the rebased readers.
  registry_.add(
      kTagSim, "sim",
      [this](SectionWriter& w) {
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
      [this](SectionReader& r, const RestoreCtx& ctx) {
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

  // ROOM — shard-level scenario state: ping tally, the presenter's outcome,
  // the slide deck generator, and the meeting timers' event identities.
  registry_.add(
      kTagRoom, "room",
      [this](SectionWriter& w) {
        w.u64(pings_);
        w.b(outcome_.success);
        w.b(outcome_.abandoned);
        w.u64(outcome_.steps_completed);
        w.u64(outcome_.errors);
        w.f64(outcome_.final_frustration);
        w.duration(outcome_.duration);
        deck_->save(w);
        slides_->save(w);
        w.u64(pingers_.size());
        for (const auto& p : pingers_) p->save(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        pings_ = r.u64();
        outcome_.success = r.b();
        outcome_.abandoned = r.b();
        outcome_.steps_completed = static_cast<std::size_t>(r.u64());
        outcome_.errors = r.u64();
        outcome_.final_frustration = r.f64();
        outcome_.duration = r.duration();
        deck_->restore(r);
        slides_->restore(r);
        const std::uint64_t n = r.u64();
        if (n != pingers_.size()) {
          throw SnapError("pinger count mismatch: structural rebuild diverged");
        }
        for (auto& p : pingers_) p->restore(r);
      });

  registry_.add(
      kTagMedium, "medium",
      [this](SectionWriter& w) { env_->medium().save(w); },
      [this](SectionReader& r, const RestoreCtx&) {
        env_->medium().restore(r);
      });

  // PHYS — per device, construction order: battery, transceiver, MAC.
  registry_.add(
      kTagPhys, "phys",
      [this](SectionWriter& w) {
        w.u64(devices_.size());
        for (const auto& d : devices_) {
          w.b(d->has_battery());
          if (d->has_battery()) d->battery().save(w);
          w.b(d->has_radio());
          if (d->has_radio()) {
            d->radio().save(w);
            d->mac().save(w);
          }
        }
      },
      [this](SectionReader& r, const RestoreCtx&) {
        if (r.u64() != devices_.size()) {
          throw SnapError("device count mismatch: structural rebuild diverged");
        }
        for (auto& d : devices_) {
          if (r.b() != d->has_battery()) {
            throw SnapError("battery presence mismatch");
          }
          if (d->has_battery()) d->battery().restore(r);
          if (r.b() != d->has_radio()) {
            throw SnapError("radio presence mismatch");
          }
          if (d->has_radio()) {
            d->radio().restore(r);
            d->mac().restore(r);
          }
        }
      });

  registry_.add(
      kTagNet, "net",
      [this](SectionWriter& w) {
        w.u64(stacks_.size());
        for (const auto& s : stacks_) s->save(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        if (r.u64() != stacks_.size()) {
          throw SnapError("stack count mismatch: structural rebuild diverged");
        }
        for (auto& s : stacks_) s->restore(r);
      });

  // STRM — both stream managers (laptop RFB server side, adapter viewer
  // side). Connection identity is structural; StreamManager::restore
  // matches serialized connections 1:1 against the warmed-up set by key.
  registry_.add(
      kTagStream, "stream",
      [this](SectionWriter& w) {
        net::StreamManager* a = display_->stream_manager();
        w.b(a != nullptr);
        if (a != nullptr) a->save(w);
        net::StreamManager* b = projector_->stream_manager();
        w.b(b != nullptr);
        if (b != nullptr) b->save(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        net::StreamManager* a = display_->stream_manager();
        if (r.b() != (a != nullptr)) {
          throw SnapError("display stream manager presence mismatch");
        }
        if (a != nullptr) a->restore(r);
        net::StreamManager* b = projector_->stream_manager();
        if (r.b() != (b != nullptr)) {
          throw SnapError("projector stream manager presence mismatch");
        }
        if (b != nullptr) b->restore(r);
      });

  registry_.add(
      kTagDisco, "disco",
      [this](SectionWriter& w) {
        registrar_->save(w);
        adapter_jini_->save(w);
        laptop_jini_->save(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        registrar_->restore(r);
        adapter_jini_->restore(r);
        laptop_jini_->restore(r);
      });

  registry_.add(
      kTagSession, "session",
      [this](SectionWriter& w) {
        projector_->save(w);
        proj_client_->save(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        projector_->restore(r);
        proj_client_->restore(r);
      });

  // RFBC — protocol control state (request flags, stats, poll timer). Kept
  // separate from PIXL so steady-state incremental checkpoints stay small:
  // control churns every poll, pixels only churn on slide flips.
  registry_.add(
      kTagRfb, "rfb",
      [this](SectionWriter& w) {
        rfb::RfbServer* srv = display_->server_mutable();
        w.b(srv != nullptr);
        if (srv != nullptr) srv->save(w);
        rfb::RfbClient* viewer = projector_->viewer_client();
        w.b(viewer != nullptr);
        if (viewer != nullptr) viewer->save(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        rfb::RfbServer* srv = display_->server_mutable();
        if (r.b() != (srv != nullptr)) {
          throw SnapError("rfb server presence mismatch");
        }
        if (srv != nullptr) srv->restore(r);
        rfb::RfbClient* viewer = projector_->viewer_client();
        if (r.b() != (viewer != nullptr)) {
          throw SnapError("rfb viewer presence mismatch");
        }
        if (viewer != nullptr) viewer->restore(r);
      });

  // PIXL — the bulky, slow-churn payload: the laptop screen, the server's
  // cached-encoding state, and the viewer's replica + tile cache.
  registry_.add(
      kTagPixels, "pixels",
      [this](SectionWriter& w) {
        display_->screen().save(w);
        display_->save(w);
        rfb::RfbServer* srv = display_->server_mutable();
        w.b(srv != nullptr);
        if (srv != nullptr) srv->save_cache(w);
        rfb::RfbClient* viewer = projector_->viewer_client();
        w.b(viewer != nullptr);
        if (viewer != nullptr) viewer->save_cache(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        display_->screen().restore(r);
        display_->restore(r);
        rfb::RfbServer* srv = display_->server_mutable();
        if (r.b() != (srv != nullptr)) {
          throw SnapError("rfb server cache presence mismatch");
        }
        if (srv != nullptr) srv->restore_cache(r);
        rfb::RfbClient* viewer = projector_->viewer_client();
        if (r.b() != (viewer != nullptr)) {
          throw SnapError("rfb viewer cache presence mismatch");
        }
        if (viewer != nullptr) viewer->restore_cache(r);
      });

  registry_.add(
      kTagUser, "user",
      [this](SectionWriter& w) { presenter_->save(w); },
      [this](SectionReader& r, const RestoreCtx&) { presenter_->restore(r); });

  // Telemetry sections are optional both ways: a telemetry-off reader skips
  // them in a telemetry-on blob, and vice versa.
  if (telemetry_ != nullptr) {
    registry_.add(
        kTagMetrics, "metrics",
        [this](SectionWriter& w) { telemetry_->metrics().save(w); },
        [this](SectionReader& r, const RestoreCtx&) {
          telemetry_->metrics().restore(r);
        },
        kSectionOptional);
    registry_.add(
        kTagSpans, "spans",
        [this](SectionWriter& w) { telemetry_->spans().save(w); },
        [this](SectionReader& r, const RestoreCtx&) {
          telemetry_->spans().restore(r);
        },
        kSectionOptional);
  }

  // Quiescence predicates: every core that can hold an un-reconstructible
  // in-flight closure vetoes checkpointing until it drains.
  registry_.add_quiescence(
      [this](std::string* why) { return env_->medium().snap_quiescent(why); });
  registry_.add_quiescence([this](std::string* why) {
    for (const auto& d : devices_) {
      if (d->has_radio() && !d->mac().snap_quiescent(why)) return false;
    }
    return true;
  });
  registry_.add_quiescence([this](std::string* why) {
    net::StreamManager* a = display_->stream_manager();
    if (a != nullptr && !a->snap_quiescent(why)) return false;
    net::StreamManager* b = projector_->stream_manager();
    return b == nullptr || b->snap_quiescent(why);
  });
  registry_.add_quiescence([this](std::string* why) {
    return adapter_jini_->snap_quiescent(why) &&
           laptop_jini_->snap_quiescent(why);
  });
  registry_.add_quiescence([this](std::string* why) {
    rfb::RfbServer* srv = display_->server_mutable();
    if (srv != nullptr && !srv->snap_quiescent(why)) return false;
    rfb::RfbClient* viewer = projector_->viewer_client();
    return viewer == nullptr || viewer->snap_quiescent(why);
  });
  registry_.add_quiescence(
      [this](std::string* why) { return proj_client_->snap_quiescent(why); });
  registry_.add_quiescence(
      [this](std::string* why) { return presenter_->snap_quiescent(why); });
}

std::vector<std::uint8_t> Room::checkpoint() {
  if (!warmed_up_) throw SnapError("Room::checkpoint before warmup");
  std::string why;
  if (!registry_.quiescent(&why)) {
    throw SnapError("checkpoint at non-quiescent point: " + why);
  }
  return registry_.save_all(world_->now());
}

void Room::restore(std::span<const std::uint8_t> blob, sim::Time gap) {
  if (!warmed_up_) throw SnapError("Room::restore before warmup");
  obs::Counter* errors =
      obs::counter(*world_, "snap.restore_errors", lpc::Layer::kPhysical);
  try {
    const SnapReader reader(blob);
    const Section* simsec = reader.find(kTagSim);
    if (simsec == nullptr) {
      throw SnapError("blob is missing the SIM section");
    }
    SectionReader peek(simsec->payload, sim::Time::zero());
    const sim::Time captured = peek.duration();
    RestoreCtx ctx;
    ctx.gap = gap;
    ctx.now = captured + gap;
    if (ctx.now < world_->now()) {
      throw SnapError("restore would move the clock backwards past warmup");
    }
    // Drop the warmup's pending events; each section re-arms the saved set
    // with original (when, seq, id) identities.
    world_->sim().clear_pending();
    registry_.restore_all(reader, ctx);
  } catch (const SnapError&) {
    if (errors != nullptr) errors->add();
    throw;
  }
  ++restores_;
  if (obs::Counter* c =
          obs::counter(*world_, "snap.restores", lpc::Layer::kPhysical)) {
    c->add();
  }
}

std::uint64_t Room::fingerprint() const {
  const env::MediumStats& m = env_->medium().stats();
  sim::RoomOutcome o;
  o.transmissions = m.transmissions;
  o.deliveries_attempted = m.deliveries_attempted;
  o.deliveries_decodable = m.deliveries_decodable;
  o.losses_sinr = m.losses_sinr;
  o.losses_half_duplex = m.losses_half_duplex;
  o.pings = pings_;
  o.registered = registrar_->registered_count();
  o.success = outcome_.success;
  o.steps_completed = outcome_.steps_completed;
  o.errors = outcome_.errors;
  o.viewer_updates = projector_->viewer()
                         ? projector_->viewer()->stats().updates_received
                         : 0;
  return sim::room_fingerprint(seed_, world_->sim().executed(), o);
}

}  // namespace aroma::snap
