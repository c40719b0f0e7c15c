// Tests for the physical layer: profiles, batteries, transceivers, the
// CSMA/CA MAC, the physical user, and the Device container.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "env/environment.hpp"
#include "phys/battery.hpp"
#include "phys/device.hpp"
#include "phys/mac.hpp"
#include "phys/physical_user.hpp"
#include "phys/profile.hpp"
#include "phys/transceiver.hpp"
#include "sim/world.hpp"

namespace aroma::phys {
namespace {

env::PathLossModel flat_model() {
  env::PathLossModel::Params p;
  p.shadowing_sigma_db = 0.0;
  return env::PathLossModel(p);
}

Transceiver::Params radio_params(std::uint64_t id,
                                 double sensitivity_dbm = -90.0) {
  Transceiver::Params tp;
  tp.config.id = id;
  tp.config.channel = 6;
  tp.config.sensitivity_dbm = sensitivity_dbm;
  return tp;
}

struct Link {
  // A sensitivity above the CCA threshold (-85 dBm) makes a station sense
  // frames it never receives, so no frame-end resync cuts its deferral.
  Link(sim::World& w, env::RadioMedium& medium, std::uint64_t id,
       env::Vec2 pos, double sensitivity_dbm = -90.0)
      : mobility(pos),
        radio(w, medium, &mobility, radio_params(id, sensitivity_dbm)),
        mac(w, radio, sim::Rng(id * 101)) {}

  env::StaticMobility mobility;
  Transceiver radio;
  CsmaMac mac;
};

// --- Profiles ----------------------------------------------------------

TEST(Profiles, PresetsAreSane) {
  const auto adapter = profiles::aroma_adapter();
  EXPECT_TRUE(adapter.net.has_radio);
  EXPECT_FALSE(adapter.ui.has_display);
  EXPECT_EQ(adapter.name, "aroma-adapter");

  const auto laptop = profiles::laptop();
  EXPECT_TRUE(laptop.ui.has_keyboard);
  EXPECT_TRUE(laptop.net.has_radio);

  const auto projector = profiles::digital_projector();
  EXPECT_TRUE(projector.ui.has_display);
  EXPECT_FALSE(projector.net.has_radio);
  EXPECT_GT(projector.idle_power_w, 100.0);

  const auto soc = profiles::future_soc();
  EXPECT_TRUE(soc.net.has_radio);
  EXPECT_LT(soc.mass_kg, 0.1);
  EXPECT_LT(soc.net.tx_power_dbm, adapter.net.tx_power_dbm);

  EXPECT_TRUE(profiles::desktop_pc().net.has_wired);
  EXPECT_FALSE(profiles::pda().net.has_radio);
}

// --- Battery ---------------------------------------------------------------

TEST(Battery, IdleDrainOverTime) {
  sim::World w(1);
  Battery::Params p;
  p.capacity_j = 100.0;
  p.idle_power_w = 1.0;
  Battery b(w, p);
  EXPECT_DOUBLE_EQ(b.level_j(), 100.0);
  w.sim().run_until(sim::Time::sec(30));
  EXPECT_NEAR(b.level_j(), 70.0, 1e-9);
  EXPECT_NEAR(b.fraction(), 0.7, 1e-9);
}

TEST(Battery, ExplicitDrainAndDepletionCallback) {
  sim::World w(1);
  Battery::Params p;
  p.capacity_j = 10.0;
  p.idle_power_w = 0.0;
  Battery b(w, p);
  bool dead = false;
  b.set_depleted_callback([&] { dead = true; });
  b.drain(4.0);
  EXPECT_FALSE(dead);
  EXPECT_FALSE(b.depleted());
  b.drain(7.0);
  EXPECT_TRUE(dead);
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.level_j(), 0.0);
  // Callback fires exactly once.
  dead = false;
  b.drain(1.0);
  EXPECT_FALSE(dead);
}

TEST(Battery, TxRxDrainRates) {
  sim::World w(1);
  Battery::Params p;
  p.capacity_j = 100.0;
  p.idle_power_w = 0.0;
  p.tx_power_w = 2.0;
  p.rx_power_w = 1.0;
  Battery b(w, p);
  b.drain_tx(10.0);
  EXPECT_NEAR(b.level_j(), 80.0, 1e-9);
  b.drain_rx(10.0);
  EXPECT_NEAR(b.level_j(), 70.0, 1e-9);
}

TEST(Battery, LifetimeEstimate) {
  Battery::Params p;
  p.capacity_j = 3600.0;
  p.idle_power_w = 0.5;
  p.tx_power_w = 1.0;
  p.rx_power_w = 0.5;
  // idle only: 7200 s. With 50% tx duty: 1 W avg -> 3600 s.
  EXPECT_NEAR(estimate_lifetime_s(p, 0.0, 0.0), 7200.0, 1e-9);
  EXPECT_NEAR(estimate_lifetime_s(p, 0.5, 0.0), 3600.0, 1e-9);
  EXPECT_GT(estimate_lifetime_s(p, 0.1, 0.1),
            estimate_lifetime_s(p, 0.5, 0.5));
}

// --- Transceiver -------------------------------------------------------

TEST(Transceiver, HalfDuplexWindow) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  env::StaticMobility pos({0, 0});
  Transceiver::Params tp;
  tp.config.id = 1;
  tp.bitrate_bps = 1e6;
  Transceiver t(w, medium, &pos, tp);
  EXPECT_TRUE(t.receiver_enabled());
  const auto air = t.transmit(1'000'000, nullptr);  // 1 s of airtime
  EXPECT_EQ(air, sim::Time::sec(1));
  EXPECT_TRUE(t.transmitting());
  EXPECT_FALSE(t.receiver_enabled());
  w.sim().run_until(sim::Time::sec(2));
  EXPECT_FALSE(t.transmitting());
  EXPECT_TRUE(t.receiver_enabled());
  EXPECT_EQ(t.frames_sent(), 1u);
}

TEST(Transceiver, PoweredOffDoesNotSendOrReceive) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  env::StaticMobility pa({0, 0}), pb({3, 0});
  Transceiver::Params ta, tb;
  ta.config.id = 1;
  tb.config.id = 2;
  Transceiver a(w, medium, &pa, ta), b(w, medium, &pb, tb);
  int received = 0;
  b.set_receive_handler([&](const env::FrameDelivery& d) {
    received += d.decodable ? 1 : 0;
  });
  b.set_powered(false);
  a.transmit(8'000, nullptr);
  w.sim().run();
  EXPECT_EQ(received, 0);
  b.set_powered(true);
  a.transmit(8'000, nullptr);
  w.sim().run();
  EXPECT_EQ(received, 1);
}

// --- CSMA MAC ----------------------------------------------------------

TEST(CsmaMac, UnicastDeliveryWithAck) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {5, 0});
  auto payload = std::make_shared<int>(42);
  int delivered_payload = 0;
  bool send_ok = false;
  b.mac.set_receive_handler([&](MacAddress src, const MacPayload& p,
                                std::size_t bits) {
    EXPECT_EQ(src, 1u);
    EXPECT_EQ(bits, 800u);
    delivered_payload = *static_cast<const int*>(p.get());
  });
  a.mac.send(2, 800, payload, [&](bool ok) { send_ok = ok; });
  w.sim().run();
  EXPECT_EQ(delivered_payload, 42);
  EXPECT_TRUE(send_ok);
  EXPECT_EQ(b.mac.stats().delivered_up, 1u);
  EXPECT_EQ(b.mac.stats().sent_acks, 1u);
  EXPECT_EQ(a.mac.stats().acks_received, 1u);
}

TEST(CsmaMac, BroadcastReachesAllWithoutAcks) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {5, 0});
  Link c(w, medium, 3, {0, 5});
  int deliveries = 0;
  const auto count = [&](MacAddress, const MacPayload&, std::size_t) {
    ++deliveries;
  };
  b.mac.set_receive_handler(count);
  c.mac.set_receive_handler(count);
  bool cb_ok = false;
  a.mac.send(kBroadcast, 400, nullptr, [&](bool ok) { cb_ok = ok; });
  w.sim().run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_TRUE(cb_ok);
  EXPECT_EQ(b.mac.stats().sent_acks, 0u);
  EXPECT_EQ(c.mac.stats().sent_acks, 0u);
}

TEST(CsmaMac, ManyFramesAllDelivered) {
  sim::World w(7);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {5, 0});
  int delivered = 0;
  b.mac.set_receive_handler(
      [&](MacAddress, const MacPayload&, std::size_t) { ++delivered; });
  for (int i = 0; i < 40; ++i) a.mac.send(2, 1'000, nullptr);
  w.sim().run();
  EXPECT_EQ(delivered, 40);
  EXPECT_EQ(b.mac.stats().duplicates_dropped, 0u);
}

TEST(CsmaMac, ContendersBothGetThrough) {
  sim::World w(3);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {3, 0});
  Link c(w, medium, 3, {0, 3});
  int from_a = 0, from_b = 0;
  c.mac.set_receive_handler(
      [&](MacAddress src, const MacPayload&, std::size_t) {
        (src == 1 ? from_a : from_b)++;
      });
  for (int i = 0; i < 25; ++i) {
    a.mac.send(3, 2'000, nullptr);
    b.mac.send(3, 2'000, nullptr);
  }
  w.sim().run();
  // Retransmission + backoff should pull (nearly) everything through.
  EXPECT_GE(from_a, 23);
  EXPECT_GE(from_b, 23);
}

TEST(CsmaMac, UnreachableDestinationFailsAfterRetries) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  bool result = true;
  a.mac.send(99, 800, nullptr, [&](bool ok) { result = ok; });
  w.sim().run();
  EXPECT_FALSE(result);
  EXPECT_EQ(a.mac.stats().drops_retry_limit, 1u);
  EXPECT_EQ(a.mac.stats().retries,
            static_cast<std::uint64_t>(a.mac.params().retry_limit) + 1);
}

TEST(CsmaMac, QueueOverflowRejects) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  int failures = 0;
  // Fill beyond queue_limit while the MAC is stuck contending.
  for (std::size_t i = 0; i < a.mac.params().queue_limit + 10; ++i) {
    a.mac.send(99, 800, nullptr, [&](bool ok) { failures += ok ? 0 : 1; });
  }
  EXPECT_GE(a.mac.stats().drops_queue_full, 9u);
  w.sim().run();
  EXPECT_GE(failures, static_cast<int>(a.mac.params().queue_limit));
}

// --- CSMA deferral -------------------------------------------------------
//
// A deferring station wakes at the first slot boundary (counted from when
// it started deferring) at or after the carrier's busy horizon. The
// expected instants below are worked out by hand from the per-slot rule:
// re-sense every 20 µs until the medium is clear, then DIFS (50 µs), then
// backoff_draw + 1 slots, then transmit.

constexpr sim::Time kSlot = sim::Time::us(20);
constexpr sim::Time kDifs = sim::Time::us(50);
const sim::Time kDataAir = sim::Time::sec((272.0 + 800.0) / 2e6);

// The first backoff draw of a Link's MAC (its RNG serves nothing else).
std::int64_t first_draw(std::uint64_t id) {
  return sim::Rng(id * 101).uniform_int(0, 15);
}

sim::Time tx_start_after_difs_from(sim::Time difs_start, std::int64_t draw) {
  return difs_start + kDifs + kSlot * (draw + 1);
}

// A bare radio putting one long frame on the air.
struct Jammer {
  Jammer(sim::World& w, env::RadioMedium& medium, std::uint64_t id,
         env::Vec2 pos)
      : mobility(pos), radio(w, medium, &mobility, radio_params(id)) {}
  sim::Time send(std::size_t bits) { return radio.transmit(bits, nullptr); }
  env::StaticMobility mobility;
  Transceiver radio;
};

TEST(CsmaDeferral, LongForeignFrameCostsNoEventsWhileOnAir) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0}, -60.0);  // senses the jammer, never hears it
  Link b(w, medium, 2, {5, 0});
  Jammer j(w, medium, 9, {40, 0});      // about -73 dBm at a
  sim::Time rx_end;
  b.mac.set_receive_handler(
      [&](MacAddress, const MacPayload&, std::size_t) { rx_end = w.now(); });
  const sim::Time frame_end = j.send(20'000);  // 10 ms
  w.sim().run_until(sim::Time::us(7));
  bool ok = false;
  a.mac.send(2, 800, nullptr, [&](bool d) { ok = d; });
  const std::uint64_t before = w.sim().executed();
  w.sim().run_until(frame_end - sim::Time::ns(1));
  // Per-slot sensing would have fired ~500 times by now.
  EXPECT_EQ(w.sim().executed() - before, 0u);
  EXPECT_LE(w.sim().pending(), 2u);  // the wake and the frame's end
  w.sim().run();
  EXPECT_TRUE(ok);
  // Boundaries 7 µs + k * 20 µs: the first at or after 10 ms is 10.007 ms.
  EXPECT_EQ(rx_end,
            tx_start_after_difs_from(sim::Time::us(10'007), first_draw(1)) +
                kDataAir);
}

TEST(CsmaDeferral, OverlappingFramesWakeAtTheEarliestEnd) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0}, -60.0);
  Link b(w, medium, 2, {5, 0});
  // Each jammer alone is under a's CCA threshold (about -86.9 dBm at
  // 116 m); together they are over it (about -83.9 dBm).
  Jammer j1(w, medium, 8, {116, 0});
  Jammer j2(w, medium, 9, {-116, 0});
  sim::Time rx_end;
  b.mac.set_receive_handler(
      [&](MacAddress, const MacPayload&, std::size_t) { rx_end = w.now(); });
  j1.send(6'000);  // 0 .. 3 ms
  w.sim().run_until(sim::Time::ms(1));
  const sim::Time j2_end = w.now() + j2.send(10'000);  // 1 .. 6 ms
  w.sim().run_until(sim::Time::us(1'007));
  a.mac.send(2, 800, nullptr);
  const std::uint64_t before = w.sim().executed();
  w.sim().run_until(sim::Time::ms(3) - sim::Time::ns(1));
  EXPECT_EQ(w.sim().executed() - before, 0u);
  w.sim().run();
  // The sum clears when j1 ends at 3 ms: the first boundary is 3.007 ms,
  // and a transmits while j2 is still on the air.
  const sim::Time tx_start =
      tx_start_after_difs_from(sim::Time::us(3'007), first_draw(1));
  EXPECT_EQ(rx_end, tx_start + kDataAir);
  EXPECT_LT(tx_start, j2_end);
}

TEST(CsmaDeferral, OwnAckOnAirDefersToTheNextBoundary) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {5, 0});
  Link c(w, medium, 3, {0, 5});
  sim::Time c_end;  // end of c's frame to a
  a.mac.set_receive_handler(
      [&](MacAddress, const MacPayload&, std::size_t) { c_end = w.now(); });
  sim::Time rx_end;
  b.mac.set_receive_handler(
      [&](MacAddress, const MacPayload&, std::size_t) { rx_end = w.now(); });
  c.mac.send(1, 800, nullptr);
  // c transmits at DIFS + (draw + 1) slots; a queues a frame mid-air.
  const sim::Time c_start = tx_start_after_difs_from({}, first_draw(3));
  w.sim().run_until(c_start + sim::Time::us(100));
  ASSERT_TRUE(a.radio.carrier_busy_until() > w.now());
  a.mac.send(2, 800, nullptr);
  w.sim().run();
  ASSERT_EQ(c_end, c_start + kDataAir);
  // The frame end resyncs a into DIFS; a's ACK goes out at +10 µs and is
  // on the air until +66 µs, so DIFS ends busy at +50 µs and a wakes at
  // the first boundary after its own ACK: +70 µs, then a full DIFS.
  EXPECT_EQ(rx_end, tx_start_after_difs_from(c_end + sim::Time::us(70),
                                             first_draw(1)) +
                        kDataAir);
  EXPECT_EQ(a.mac.stats().sent_acks, 1u);
}

TEST(CsmaDeferral, MovingRadioSensesEverySlot) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  // a recedes from the jammer at 1 km/s: from 90 m at t = 0 it crosses
  // 100 m, where the jammer falls under -85 dBm, at 10 ms, while the
  // jammer's frame runs to 20 ms.
  env::LinearMobility path({-50, 0}, {-1000, 0});
  Transceiver radio(w, medium, &path, radio_params(1, -60.0));
  CsmaMac mac(w, radio, sim::Rng(101));
  Jammer j(w, medium, 9, {40, 0});
  Transceiver listener(w, medium, nullptr, radio_params(5));
  sim::Time tx_start;
  listener.set_receive_handler([&](const env::FrameDelivery& d) {
    if (d.sender_radio == 1 && tx_start == sim::Time{}) tx_start = d.start;
  });
  j.send(40'000);
  w.sim().run_until(sim::Time::us(7));
  mac.send(99, 800, nullptr);
  const std::uint64_t before = w.sim().executed();
  w.sim().run_until(sim::Time::ms(10) - sim::Time::ns(1));
  EXPECT_GE(w.sim().executed() - before, 490u);  // one wake per slot
  w.sim().run_until(sim::Time::ms(30));
  // 9.987 ms senses the jammer, 10.007 ms finds the medium clear.
  EXPECT_EQ(tx_start,
            tx_start_after_difs_from(sim::Time::us(10'007), first_draw(1)));
}

TEST(CsmaDeferral, ChannelHopWakesAtTheNextBoundary) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0}, -60.0);
  Jammer j(w, medium, 9, {40, 0});
  Transceiver::Params lp = radio_params(5);
  lp.config.channel = 11;
  env::StaticMobility lpos({5, 0});
  Transceiver listener(w, medium, &lpos, lp);
  sim::Time tx_start;
  listener.set_receive_handler([&](const env::FrameDelivery& d) {
    if (d.sender_radio == 1 && tx_start == sim::Time{}) tx_start = d.start;
  });
  j.send(20'000);  // 0 .. 10 ms on channel 6
  w.sim().run_until(sim::Time::us(7));
  a.mac.send(99, 800, nullptr);
  w.sim().run_until(sim::Time::us(2'000));
  a.radio.set_channel(11);  // channel 11 is clear
  w.sim().run_until(sim::Time::ms(30));
  // Boundaries 7 µs + k * 20 µs: 1.987 ms sensed channel 6, 2.007 ms
  // senses channel 11.
  EXPECT_EQ(tx_start,
            tx_start_after_difs_from(sim::Time::us(2'007), first_draw(1)));
}

TEST(CsmaDeferral, DrainedBurstLeavesNoPendingMacEvent) {
  sim::World w(5);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {4, 0});
  Link c(w, medium, 3, {0, 4});
  Link* links[] = {&a, &b, &c};
  int outstanding = 0;
  for (int i = 0; i < 8; ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      ++outstanding;
      links[k]->mac.send(links[(k + 1) % 3]->mac.address(), 1'000, nullptr,
                         [&](bool) { --outstanding; });
    }
  }
  // Step to the instant the last exchange completes.
  while (outstanding > 0 && w.sim().step()) {
  }
  ASSERT_EQ(outstanding, 0);
  std::uint64_t retries = 0;
  for (Link* l : links) {
    std::string why;
    EXPECT_TRUE(l->mac.snap_quiescent(&why)) << why;
    retries += l->mac.stats().retries;
  }
  EXPECT_GT(w.sim().cancelled(), 0u);  // superseded timers were cancelled
  // The last ACK's own frame end is the step that just ran; nothing of the
  // MAC's is left: no ACK timeout, no superseded defer wake.
  EXPECT_EQ(w.sim().pending(), 0u) << "retries " << retries;
}

// --- PhysicalUser ------------------------------------------------------

TEST(PhysicalUser, ReadingDependsOnAcuityAndDistance) {
  PhysicalUser u(1, "u", nullptr);
  EXPECT_TRUE(u.can_read(3.0, 0.5));    // laptop text at arm's length
  EXPECT_FALSE(u.can_read(3.0, 4.0));   // same text across the room
  EXPECT_TRUE(u.can_read(40.0, 4.0));   // projected glyphs across the room
  Physiology weak;
  weak.visual_acuity = 0.3;
  PhysicalUser lowvision(2, "lv", nullptr, weak);
  EXPECT_FALSE(lowvision.can_read(3.0, 0.5));
}

TEST(PhysicalUser, PressAndHear) {
  PhysicalUser u(1, "u", nullptr);
  EXPECT_TRUE(u.can_press(10.0));
  EXPECT_FALSE(u.can_press(2.0));
  EXPECT_TRUE(u.can_hear(60.0, 40.0));
  EXPECT_FALSE(u.can_hear(10.0, 40.0));   // below threshold
  EXPECT_FALSE(u.can_hear(50.0, 70.0));   // masked by noise
}

TEST(PhysicalUser, CompatibilityFindings) {
  PhysicalUser u(1, "presenter", nullptr);
  env::AmbientConditions cond;
  // PDA with tiny text read at 1 m: unreadable.
  auto issues = check_physical_compatibility(u, profiles::pda(), 1.0, cond);
  bool found_text = false;
  for (const auto& i : issues) {
    found_text |= i.description.find("unreadable") != std::string::npos;
  }
  EXPECT_TRUE(found_text);

  // Laptop at arm's length in a sane office: clean.
  EXPECT_TRUE(
      check_physical_compatibility(u, profiles::laptop(), 0.5, cond).empty());

  // Projector in an overheated room: operating-range violation.
  cond.temperature_c = 40.0;
  issues = check_physical_compatibility(u, profiles::digital_projector(), 4.0,
                                        cond);
  bool found_thermal = false;
  for (const auto& i : issues) {
    found_thermal |= i.description.find("temperature") != std::string::npos;
  }
  EXPECT_TRUE(found_thermal);
}

// --- Device --------------------------------------------------------------

TEST(Device, WiresRadioForRadioProfiles) {
  sim::World w(1);
  env::Environment e(w);
  Device d(w, e, 42, profiles::aroma_adapter(),
           std::make_unique<env::StaticMobility>(env::Vec2{1, 1}));
  EXPECT_TRUE(d.has_radio());
  EXPECT_EQ(d.mac().address(), 42u);
  EXPECT_EQ(d.position(), (env::Vec2{1, 1}));
  EXPECT_TRUE(d.operational());
  EXPECT_EQ(e.medium().attached_count(), 1u);
}

TEST(Device, NoRadioForWiredProfiles) {
  sim::World w(1);
  env::Environment e(w);
  Device d(w, e, 7, profiles::digital_projector(),
           std::make_unique<env::StaticMobility>(env::Vec2{0, 0}));
  EXPECT_FALSE(d.has_radio());
}

TEST(Device, BatteryDepletionStopsOperation) {
  sim::World w(1);
  env::Environment e(w);
  Device::Options opt;
  opt.battery_powered = true;
  opt.battery.capacity_j = 10.0;
  auto profile = profiles::future_soc();
  profile.idle_power_w = 1.0;
  Device d(w, e, 9, profile,
           std::make_unique<env::StaticMobility>(env::Vec2{0, 0}), opt);
  EXPECT_TRUE(d.operational());
  w.sim().run_until(sim::Time::sec(60));
  EXPECT_FALSE(d.operational());
}

TEST(Device, ThermalEnvelopeGatesOperation) {
  sim::World w(1);
  env::Environment e(w);
  Device d(w, e, 5, profiles::digital_projector(),
           std::make_unique<env::StaticMobility>(env::Vec2{0, 0}));
  EXPECT_TRUE(d.operational());
  e.conditions().temperature_c = 50.0;
  EXPECT_FALSE(d.operational());
}

// Two devices talk end-to-end through their MACs.
TEST(Device, EndToEndMacTraffic) {
  sim::World w(1);
  env::Environment e(w);
  Device a(w, e, 1, profiles::laptop(),
           std::make_unique<env::StaticMobility>(env::Vec2{0, 0}));
  Device b(w, e, 2, profiles::aroma_adapter(),
           std::make_unique<env::StaticMobility>(env::Vec2{6, 0}));
  int got = 0;
  b.mac().set_receive_handler(
      [&](MacAddress, const MacPayload&, std::size_t) { ++got; });
  a.mac().send(2, 4'000, nullptr);
  w.sim().run();
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace aroma::phys
