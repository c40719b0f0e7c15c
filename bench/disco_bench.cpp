// DISCO — service-tier benchmark: indexed matching, query caching,
// admission-controlled overload, and the batched session gateway.
//
// Four single-world legs plus one fleet leg, every one a pure function of
// --seed:
//
//  * index: 10k registered services, randomized templates. The inverted
//    attribute index must return bit-identical ids to the retained scalar
//    scan oracle (fingerprints compared over every equality query), and
//    indexed lookup throughput must beat the scan by >= --min-speedup
//    (gate: 5x at 10k services).
//  * cache: zipf-distributed template popularity against a read-through
//    QueryCache, with periodic re-registrations bumping the index epoch so
//    cached entries go stale and must be invalidated. Gate: hit rate >= 80%.
//  * overload: a real simulated cell — one admission-controlled registrar,
//    clients offering 2x its service rate. Lookup latency lands in the obs
//    HDR histogram ("disco.lookup.latency_us"); shed lookups bounce with
//    kLookupBusy and the clients retry under jittered backoff; sheds file
//    lpc resource-layer issues through the injected hook. Gates: shedding
//    engaged, queue depth never exceeds capacity, and p99 stays under the
//    bound computed from the retry/backoff envelope.
//  * gateway: 20k churning sessions driven through a naive LeaseTable (one
//    kernel check event per grant/renewal) and through the SessionGateway
//    (one kernel event per non-empty tick bucket). Gates: >= --min-reduction
//    fewer wakeups, and a bit-identical expiry fingerprint across two runs.
//  * fleet: the same seeded mini-cell scenario sharded across a
//    WorkStealingPool under different worker counts; the fleet fingerprint
//    must not depend on the worker count.
//
// Output lands in BENCH_disco.json (schema in README.md, validated and
// re-derived by scripts/check_bench_json.py). Exit status is nonzero when
// any gate fails.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "disco/federation.hpp"
#include "disco/gateway.hpp"
#include "disco/index.hpp"
#include "disco/jini.hpp"
#include "disco/lease.hpp"
#include "disco/service.hpp"
#include "lpc/issue.hpp"
#include "obs/hdr.hpp"
#include "obs/telemetry.hpp"
#include "sim/fleet.hpp"
#include "sim/random.hpp"
#include "sim/world.hpp"

namespace benchsup = aroma::benchsup;

namespace {

using namespace aroma;
using sim::Time;
using benchsup::hex64;
using benchsup::seconds_since;

// ---------------------------------------------------------------------------
// Shared corpus: seeded services and query templates.

struct Corpus {
  std::vector<disco::ServiceDescription> services;
  std::vector<disco::ServiceTemplate> queries;
};

Corpus make_corpus(std::uint64_t seed, std::size_t n_services,
                   std::size_t n_queries) {
  sim::Rng rng(sim::mix_hash(seed, 0xd15c0));
  static const char* kCategories[] = {"projector", "printer", "display",
                                      "sensor", "speaker", "camera",
                                      "storage", "gateway"};
  static const char* kVariants[] = {"a", "b", "c", "d", "hd", "lite"};
  Corpus c;
  c.services.reserve(n_services);
  for (std::size_t i = 0; i < n_services; ++i) {
    disco::ServiceDescription s;
    s.id = static_cast<disco::ServiceId>(i + 1);
    s.type = std::string("svc/") + kCategories[rng.uniform_int(0, 7)] + "/" +
             kVariants[rng.uniform_int(0, 5)];
    s.endpoint = {static_cast<net::NodeId>(rng.uniform_int(1, 1000)), 80};
    s.attributes["room"] =
        "room-" + std::to_string(rng.uniform_int(0, 199));
    s.attributes["floor"] = std::to_string(rng.uniform_int(0, 19));
    if (rng.uniform_int(0, 1) == 0) {
      s.attributes["owner"] =
          "user-" + std::to_string(rng.uniform_int(0, 499));
    }
    c.services.push_back(std::move(s));
  }
  c.queries.reserve(n_queries);
  for (std::size_t q = 0; q < n_queries; ++q) {
    disco::ServiceTemplate t;
    switch (rng.uniform_int(0, 9)) {
      case 0:  // rare wildcard
        break;
      case 1:
        t.type = "svc/nonexistent";  // guaranteed miss
        break;
      default:
        t.type = std::string("svc/") + kCategories[rng.uniform_int(0, 7)];
        if (rng.uniform_int(0, 2) != 0) {
          t.attributes["room"] =
              "room-" + std::to_string(rng.uniform_int(0, 199));
        }
        if (rng.uniform_int(0, 3) == 0) {
          t.attributes["floor"] = std::to_string(rng.uniform_int(0, 19));
        }
        break;
    }
    c.queries.push_back(std::move(t));
  }
  return c;
}

std::uint64_t fold_ids(std::uint64_t fp,
                       const std::vector<disco::ServiceId>& ids) {
  fp = sim::mix_hash(fp, ids.size());
  for (const disco::ServiceId id : ids) fp = sim::mix_hash(fp, id);
  return fp;
}

// ---------------------------------------------------------------------------
// Leg 1: inverted index vs scalar scan oracle.

struct IndexResult {
  std::uint64_t fp_indexed = 0;
  std::uint64_t fp_scan = 0;
  double indexed_ops_per_sec = 0;
  double scan_ops_per_sec = 0;
  std::size_t services = 0;
  std::size_t equality_queries = 0;
};

IndexResult run_index_leg(std::uint64_t seed, std::size_t n_services,
                          std::size_t n_equality, std::size_t n_throughput,
                          std::size_t n_scan_sample) {
  const Corpus corpus =
      make_corpus(seed, n_services, std::max(n_equality, n_throughput));
  disco::ServiceIndex index;
  for (const auto& s : corpus.services) index.insert(s);

  IndexResult r;
  r.services = n_services;
  r.equality_queries = n_equality;
  // Equality sweep: every query answered by both paths, ids folded into
  // two fingerprints that must collide exactly.
  for (std::size_t q = 0; q < n_equality; ++q) {
    r.fp_indexed = fold_ids(r.fp_indexed, index.match(corpus.queries[q]));
    r.fp_scan = fold_ids(r.fp_scan, index.match_scan(corpus.queries[q]));
  }

  // Throughput: the indexed path over the full query mix; the scan oracle
  // over a subsample (it is the O(n) baseline being replaced — timing every
  // query through it would dominate the bench run).
  std::uint64_t sink = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < n_throughput; ++q) {
    sink ^= fold_ids(0, index.match(corpus.queries[q]));
  }
  const double indexed_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < n_scan_sample; ++q) {
    sink ^= fold_ids(0, index.match_scan(corpus.queries[q]));
  }
  const double scan_s = seconds_since(t0);
  if (sink == 0xdeadbeef) std::printf("(unreachable)\n");  // keep `sink` live
  r.indexed_ops_per_sec =
      static_cast<double>(n_throughput) / (indexed_s > 0 ? indexed_s : 1e-9);
  r.scan_ops_per_sec =
      static_cast<double>(n_scan_sample) / (scan_s > 0 ? scan_s : 1e-9);
  return r;
}

// ---------------------------------------------------------------------------
// Leg 2: read-through query cache under zipf-popular templates.

struct CacheResult {
  disco::QueryCacheStats stats;
  std::size_t probes = 0;
  double hit_rate = 0;
};

CacheResult run_cache_leg(std::uint64_t seed, std::size_t n_services,
                          std::size_t n_probes) {
  const std::size_t kDistinct = 400;
  const Corpus corpus = make_corpus(seed, n_services, kDistinct);
  disco::ServiceIndex index;
  for (const auto& s : corpus.services) index.insert(s);
  disco::QueryCache cache(512);

  // Pre-serialize the template keys once; popularity is zipf over rank.
  std::vector<std::string> keys;
  keys.reserve(kDistinct);
  for (const auto& t : corpus.queries) {
    keys.push_back(disco::QueryCache::key_of(t));
  }

  sim::Rng rng(sim::mix_hash(seed, 0xcac4e));
  CacheResult r;
  r.probes = n_probes;
  for (std::size_t p = 0; p < n_probes; ++p) {
    if (p > 0 && p % 2000 == 0) {
      // Churn: one service re-registers with fresh attributes, bumping the
      // epoch and invalidating every cached entry on its next probe.
      const auto victim =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n_services) - 1));
      disco::ServiceDescription s = corpus.services[victim];
      s.attributes["room"] =
          "room-" + std::to_string(rng.uniform_int(0, 199));
      index.insert(s);  // replace by id
    }
    const auto rank = static_cast<std::size_t>(
        rng.zipf(static_cast<std::int64_t>(kDistinct), 1.2) - 1);
    if (cache.lookup(keys[rank], index.epoch()) == nullptr) {
      cache.insert(keys[rank], index.epoch(),
                   index.match(corpus.queries[rank]));
    }
  }
  r.stats = cache.stats();
  r.hit_rate = static_cast<double>(r.stats.hits) /
               static_cast<double>(r.stats.hits + r.stats.misses);
  return r;
}

// ---------------------------------------------------------------------------
// Leg 3: overload over a real simulated cell.

struct OverloadResult {
  std::uint64_t lookups_offered = 0;
  std::uint64_t answered = 0;
  std::uint64_t answered_nonempty = 0;
  std::uint64_t shed = 0;
  std::uint64_t max_queue = 0;
  std::uint64_t capacity = 0;
  std::uint64_t issues_filed = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t hdr_count = 0;
  std::uint64_t p99_bound_us = 0;
  double offered_per_sec = 0;
};

OverloadResult run_overload_leg(std::uint64_t seed, std::size_t n_clients,
                                double blast_seconds) {
  obs::Telemetry telemetry;
  benchsup::Cell cell(seed);
  benchsup::ScopedTelemetry scope(&telemetry, cell.world());

  disco::JiniRegistrar::Params rp;
  rp.cache_capacity = 64;
  rp.admission_capacity = 16;
  // Service rate 100 lookups/s: slow enough that the offered 2x overload
  // (~70 KB/s of requests + responses) stays well inside the cell's 2 Mbps
  // shared radio — the bench measures admission control, not MAC collapse.
  rp.admission_service_time = Time::ms(10);
  auto reg = cell.add(phys::profiles::laptop(), {0, 0});
  disco::JiniRegistrar registrar(cell.world(), *reg.stack, rp);
  lpc::IssueLog issues;
  registrar.set_issue_hook(lpc::shed_issue_filer(
      issues, "jini-registrar-" + std::to_string(registrar.node())));

  // One provider populates the registrar; the blast clients query it.
  auto prov = cell.add(phys::profiles::laptop(), {2, 0});
  disco::JiniClient provider(cell.world(), *prov.stack);
  for (int i = 0; i < 10; ++i) {
    disco::ServiceDescription s;
    s.type = i % 2 == 0 ? "svc/printer/a" : "svc/projector/a";
    s.endpoint = {prov.stack->node_id(), static_cast<net::Port>(600 + i)};
    s.attributes["room"] = "room-" + std::to_string(i);
    provider.register_service(std::move(s), [](bool, disco::ServiceId) {});
  }

  std::vector<std::unique_ptr<disco::JiniClient>> clients;
  OverloadResult r;
  for (std::size_t c = 0; c < n_clients; ++c) {
    auto node = cell.add(phys::profiles::aroma_adapter(),
                         {3.0 + static_cast<double>(c), 2.0});
    clients.push_back(
        std::make_unique<disco::JiniClient>(cell.world(), *node.stack));
  }
  cell.run_until(3.0);  // discovery + registration settle

  // Offered load: n_clients * 50/s = 2x the registrar's 100/s service
  // rate. Each client fires every 20 ms, staggered so arrivals interleave.
  const Time gap = Time::ms(20);
  for (std::size_t c = 0; c < n_clients; ++c) {
    disco::JiniClient* client = clients[c].get();
    const disco::ServiceTemplate tmpl{
        c % 2 == 0 ? "svc/printer" : "svc/projector", {}};
    const auto issue_at_steps =
        static_cast<std::int64_t>(blast_seconds * 50.0);
    for (std::int64_t k = 0; k < issue_at_steps; ++k) {
      const Time at = Time::sec(3.0) + Time::us(500) * static_cast<std::int64_t>(c) +
                      gap * k;
      cell.world().sim().schedule_at(at, sim::EventCategory::kApp,
                                     [client, tmpl, &r] {
                                       ++r.lookups_offered;
                                       client->lookup(
                                           tmpl,
                                           [&r](std::vector<disco::ServiceDescription> s) {
                                             ++r.answered;
                                             if (!s.empty()) ++r.answered_nonempty;
                                           });
                                     });
    }
  }
  cell.run_until(3.0 + blast_seconds + 10.0);  // drain retries and timeouts

  r.capacity = rp.admission_capacity;
  r.offered_per_sec =
      static_cast<double>(n_clients) * 50.0;
  if (const auto* adm = registrar.admission_stats()) {
    r.max_queue = adm->max_queue;
    r.issues_filed = adm->issues_filed;
  }
  r.shed = registrar.stats().lookups_shed;
  if (const obs::HdrHistogram* h = telemetry.metrics().find_hdr(
          "disco.lookup.latency_us")) {
    r.p50_us = h->p50();
    r.p99_us = h->p99();
    r.hdr_count = h->count();
  }
  // Worst credible latency: the full busy-retry envelope (exponential
  // backoff plus maximal jitter per retry) + a drained admission queue +
  // generous network/MAC slack. Anything past this indicates unbounded
  // queueing, which admission control exists to prevent.
  const disco::JiniClient::Params cp;  // defaults used by the blast clients
  std::uint64_t backoff_us = 0;
  for (int k = 0; k < cp.busy_retries; ++k) {
    backoff_us += static_cast<std::uint64_t>(
        (cp.busy_backoff * (1LL << k)).count() / 1000);           // backoff
    backoff_us += static_cast<std::uint64_t>(cp.busy_backoff.count() / 1000);  // max jitter
  }
  const std::uint64_t queue_us = static_cast<std::uint64_t>(
      rp.admission_capacity * static_cast<std::uint64_t>(rp.admission_service_time.count()) / 1000);
  r.p99_bound_us = backoff_us + queue_us + 200'000;  // 200 ms network slack
  return r;
}

// ---------------------------------------------------------------------------
// Leg 4: session gateway vs naive per-session wakeups.

struct ChurnOp {
  Time open_at;
  Time lease;
  std::uint64_t owner;
};

std::vector<ChurnOp> make_churn(std::uint64_t seed, std::size_t sessions) {
  sim::Rng rng(sim::mix_hash(seed, 0x5e55));
  std::vector<ChurnOp> ops;
  ops.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    ChurnOp op;
    op.open_at = Time::ms(rng.uniform_int(0, 9999));       // spread over 10 s
    op.lease = Time::ms(1000 + rng.uniform_int(0, 1999));  // 1..3 s
    op.owner = i + 1;
    ops.push_back(op);
  }
  return ops;
}

struct GatewayResult {
  std::size_t sessions = 0;
  std::uint64_t naive_wakeups = 0;    // LeaseTable check events scheduled
  std::uint64_t gateway_wakeups = 0;  // gateway bucket events armed
  std::uint64_t expired = 0;
  std::uint64_t fingerprint = 0;
  double sessions_per_sec = 0;
  double naive_wall_s = 0;
  double gateway_wall_s = 0;
};

// Each session: open, renew twice (at 50% of the lease), then lapse.
constexpr int kRenewalsPerSession = 2;

double run_naive_churn(std::uint64_t seed, const std::vector<ChurnOp>& ops,
                       std::uint64_t* expired_out) {
  sim::World world(seed);
  disco::LeaseTable leases(world);
  std::uint64_t expired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const ChurnOp& op : ops) {
    world.sim().schedule_at(op.open_at, sim::EventCategory::kApp, [&, op] {
      leases.grant(op.owner, op.lease, [&expired] { ++expired; });
      for (int k = 1; k <= kRenewalsPerSession; ++k) {
        world.sim().schedule_in(
            sim::scale(op.lease, 0.5 * k), sim::EventCategory::kApp,
            [&, op] { leases.renew(op.owner, op.lease); });
      }
    });
  }
  world.sim().run_until(Time::sec(60));
  *expired_out = expired;
  return seconds_since(t0);
}

double run_gateway_churn(std::uint64_t seed, const std::vector<ChurnOp>& ops,
                         disco::GatewayStats* stats_out,
                         std::uint64_t* fp_out) {
  sim::World world(seed);
  disco::SessionGateway gateway(world);
  std::uint64_t fp = 0x9e3779b97f4a7c15ULL;
  const auto t0 = std::chrono::steady_clock::now();
  for (const ChurnOp& op : ops) {
    world.sim().schedule_at(op.open_at, sim::EventCategory::kApp, [&, op] {
      const disco::GatewaySession s =
          gateway.open(op.owner, op.lease, [&fp, &world, op] {
            fp = sim::mix_hash(fp, sim::mix_hash(op.owner,
                                                 static_cast<std::uint64_t>(
                                                     world.now().count())));
          });
      for (int k = 1; k <= kRenewalsPerSession; ++k) {
        world.sim().schedule_in(
            sim::scale(op.lease, 0.5 * k), sim::EventCategory::kApp,
            [&gateway, s, op] { gateway.renew(s, op.lease); });
      }
    });
  }
  world.sim().run_until(Time::sec(60));
  *stats_out = gateway.stats();
  *fp_out = fp;
  return seconds_since(t0);
}

GatewayResult run_gateway_leg(std::uint64_t seed, std::size_t sessions) {
  const std::vector<ChurnOp> ops = make_churn(seed, sessions);
  GatewayResult r;
  r.sessions = sessions;

  std::uint64_t naive_expired = 0;
  r.naive_wall_s = run_naive_churn(seed, ops, &naive_expired);
  // Every grant and every renewal schedules one kernel expiry check.
  r.naive_wakeups =
      static_cast<std::uint64_t>(sessions) * (1 + kRenewalsPerSession);

  disco::GatewayStats gs{};
  std::uint64_t fp1 = 0, fp2 = 0;
  r.gateway_wall_s = run_gateway_churn(seed, ops, &gs, &fp1);
  disco::GatewayStats gs2{};
  run_gateway_churn(seed, ops, &gs2, &fp2);  // determinism probe
  r.gateway_wakeups = gs.wakeups;
  r.expired = gs.expired;
  r.fingerprint = fp1 == fp2 ? fp1 : 0;
  const double ops_total =
      static_cast<double>(sessions) * (2.0 + kRenewalsPerSession);
  r.sessions_per_sec =
      ops_total / (r.gateway_wall_s > 0 ? r.gateway_wall_s : 1e-9);
  if (naive_expired != gs.expired) {
    std::fprintf(stderr, "FAIL: naive/gateway expiry divergence (%llu vs %llu)\n",
                 static_cast<unsigned long long>(naive_expired),
                 static_cast<unsigned long long>(gs.expired));
    r.fingerprint = 0;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Leg 5: fleet shards — fingerprint must not depend on the worker count.

std::uint64_t run_fleet_pass(std::uint64_t seed, std::size_t shards,
                             std::size_t workers) {
  std::vector<std::uint64_t> fps(shards, 0);
  sim::WorkStealingPool::run(workers, shards, [&](std::size_t i, std::size_t) {
    const std::uint64_t shard_seed = sim::shard_seed(seed, i);
    // Mini service tier per shard: indexed matching + cache + gateway churn.
    const Corpus corpus = make_corpus(shard_seed, 400, 200);
    disco::ServiceIndex index;
    for (const auto& s : corpus.services) index.insert(s);
    std::uint64_t fp = shard_seed;
    for (const auto& t : corpus.queries) fp = fold_ids(fp, index.match(t));

    sim::World world(shard_seed);
    disco::SessionGateway gateway(world);
    sim::Rng rng(sim::mix_hash(shard_seed, 0xf1ee7));
    for (int s = 0; s < 500; ++s) {
      gateway.open(static_cast<std::uint64_t>(s),
                   Time::ms(100 + rng.uniform_int(0, 900)), [&fp, &world, s] {
                     fp = sim::mix_hash(
                         fp, sim::mix_hash(
                                 static_cast<std::uint64_t>(s),
                                 static_cast<std::uint64_t>(world.now().count())));
                   });
    }
    world.sim().run_until(Time::sec(5));
    fps[i] = sim::mix_hash(fp, gateway.stats().wakeups);
  });
  return sim::fleet_fingerprint(fps);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 2026;
  std::string json_path = "BENCH_disco.json";
  std::size_t services = 10000;
  std::size_t sessions = 20000;
  double min_speedup = 5.0;
  double min_hit_rate = 0.8;
  double min_reduction = 5.0;
  bool quick = false;
  benchsup::Flags()
      .add("--seed", seed)
      .add("--json", json_path)
      .add("--services", services)
      .add("--sessions", sessions)
      .add("--min-speedup", min_speedup)
      .add("--quick", quick)
      .parse(argc, argv,
             "usage: disco_bench [--seed n] [--json path] [--services n] "
             "[--sessions n] [--min-speedup x] [--quick]");
  // --quick trims the leg sizes for CI smoke, keeping every gate armed.
  const std::size_t n_equality = quick ? 300 : 1500;
  const std::size_t n_throughput = quick ? 5000 : 1000000;
  const std::size_t n_scan_sample = quick ? 100 : 400;
  const std::size_t n_cache_probes = quick ? 10000 : 500000;
  const std::size_t n_clients = 4;
  const double blast_seconds = quick ? 2.0 : 5.0;
  if (quick) {
    services = std::min<std::size_t>(services, 2000);
    sessions = std::min<std::size_t>(sessions, 4000);
  }

  std::printf("== DISCO: service tier, seed %llu%s ==\n",
              static_cast<unsigned long long>(seed), quick ? " (quick)" : "");
  bool ok = true;

  // --- index ----------------------------------------------------------------
  const IndexResult idx = run_index_leg(seed, services, n_equality,
                                        n_throughput, n_scan_sample);
  const double speedup = idx.indexed_ops_per_sec / idx.scan_ops_per_sec;
  const bool index_matches = idx.fp_indexed == idx.fp_scan;
  const bool speedup_ok = speedup >= min_speedup;
  benchsup::table_header("Indexed matching vs scalar oracle",
                         {"services", "equality-q", "indexed-ops/s",
                          "scan-ops/s", "speedup", "identical"});
  benchsup::table_row(static_cast<double>(idx.services),
                      static_cast<double>(idx.equality_queries),
                      idx.indexed_ops_per_sec, idx.scan_ops_per_sec, speedup,
                      std::string(index_matches ? "yes" : "NO"));
  if (!index_matches) {
    std::fprintf(stderr, "FAIL: indexed results diverge from the oracle (%s vs %s)\n",
                 hex64(idx.fp_indexed).c_str(), hex64(idx.fp_scan).c_str());
    ok = false;
  }
  if (!speedup_ok) {
    std::fprintf(stderr, "FAIL: index speedup %.1fx below the %.1fx gate\n",
                 speedup, min_speedup);
    ok = false;
  }

  // --- cache ------------------------------------------------------------------
  const CacheResult cache = run_cache_leg(seed, services, n_cache_probes);
  const bool hit_rate_ok = cache.hit_rate >= min_hit_rate;
  benchsup::table_header("Query cache under zipf popularity",
                         {"probes", "hits", "misses", "neg-hits",
                          "invalidations", "hit-rate"});
  benchsup::table_row(static_cast<std::uint64_t>(cache.probes),
                      cache.stats.hits, cache.stats.misses,
                      cache.stats.negative_hits, cache.stats.invalidations,
                      cache.hit_rate);
  if (!hit_rate_ok) {
    std::fprintf(stderr, "FAIL: cache hit rate %.3f below the %.2f gate\n",
                 cache.hit_rate, min_hit_rate);
    ok = false;
  }

  // --- overload ---------------------------------------------------------------
  const OverloadResult ov = run_overload_leg(seed, n_clients, blast_seconds);
  const bool shed_engaged = ov.shed > 0;
  const bool queue_bounded = ov.max_queue <= ov.capacity;
  const bool p99_bounded = ov.p99_us > 0 && ov.p99_us <= ov.p99_bound_us;
  benchsup::table_header("Overload at 2x capacity (admission + shed + retry)",
                         {"offered/s", "offered", "answered", "shed",
                          "max-queue", "p50-us", "p99-us", "p99-bound-us"});
  benchsup::table_row(ov.offered_per_sec, ov.lookups_offered, ov.answered,
                      ov.shed, ov.max_queue, ov.p50_us, ov.p99_us,
                      ov.p99_bound_us);
  if (!shed_engaged) {
    std::fprintf(stderr, "FAIL: overload leg never shed a lookup\n");
    ok = false;
  }
  if (!queue_bounded) {
    std::fprintf(stderr, "FAIL: admission queue exceeded capacity (%llu > %llu)\n",
                 static_cast<unsigned long long>(ov.max_queue),
                 static_cast<unsigned long long>(ov.capacity));
    ok = false;
  }
  if (!p99_bounded) {
    std::fprintf(stderr, "FAIL: p99 %llu us breaches the %llu us bound\n",
                 static_cast<unsigned long long>(ov.p99_us),
                 static_cast<unsigned long long>(ov.p99_bound_us));
    ok = false;
  }

  // --- gateway ----------------------------------------------------------------
  const GatewayResult gw = run_gateway_leg(seed, sessions);
  const double reduction = static_cast<double>(gw.naive_wakeups) /
                           static_cast<double>(gw.gateway_wakeups ? gw.gateway_wakeups : 1);
  const bool reduction_ok = reduction >= min_reduction;
  const bool gateway_deterministic = gw.fingerprint != 0;
  benchsup::table_header("Session gateway vs per-session wakeups",
                         {"sessions", "naive-wakeups", "gw-wakeups",
                          "reduction", "sessions/s", "fingerprint"});
  benchsup::table_row(static_cast<std::uint64_t>(gw.sessions),
                      gw.naive_wakeups, gw.gateway_wakeups, reduction,
                      gw.sessions_per_sec, hex64(gw.fingerprint));
  if (!reduction_ok) {
    std::fprintf(stderr, "FAIL: wakeup reduction %.1fx below the %.1fx gate\n",
                 reduction, min_reduction);
    ok = false;
  }
  if (!gateway_deterministic) {
    std::fprintf(stderr, "FAIL: gateway churn fingerprint not reproducible\n");
    ok = false;
  }

  // --- fleet ------------------------------------------------------------------
  const std::size_t hw = sim::WorkStealingPool::hardware_workers();
  const std::size_t shards = 8;
  const std::vector<std::size_t> worker_counts = {1, hw > 1 ? hw : 2};
  std::vector<std::uint64_t> fleet_fps;
  for (const std::size_t w : worker_counts) {
    fleet_fps.push_back(run_fleet_pass(seed, shards, w));
  }
  bool fleet_stable = true;
  for (const std::uint64_t fp : fleet_fps) {
    fleet_stable = fleet_stable && fp == fleet_fps[0];
  }
  benchsup::table_header("Fleet shards across worker counts",
                         {"shards", "workers", "fingerprint"});
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    benchsup::table_row(static_cast<std::uint64_t>(shards),
                        static_cast<std::uint64_t>(worker_counts[i]),
                        hex64(fleet_fps[i]));
  }
  if (!fleet_stable) {
    std::fprintf(stderr, "FAIL: fleet fingerprint depends on worker count\n");
    ok = false;
  }

  // --- JSON artifact ------------------------------------------------------------
  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "disco");
  doc.set("seed", seed);
  doc.set("quick", quick);

  benchsup::Json jidx = benchsup::Json::object();
  jidx.set("services", static_cast<std::uint64_t>(idx.services));
  jidx.set("equality_queries", static_cast<std::uint64_t>(idx.equality_queries));
  jidx.set("fp_indexed", hex64(idx.fp_indexed));
  jidx.set("fp_scan", hex64(idx.fp_scan));
  jidx.set("indexed_ops_per_sec", idx.indexed_ops_per_sec);
  jidx.set("scan_ops_per_sec", idx.scan_ops_per_sec);
  jidx.set("speedup", speedup);
  doc.set("index", std::move(jidx));

  benchsup::Json jcache = benchsup::Json::object();
  jcache.set("probes", static_cast<std::uint64_t>(cache.probes));
  jcache.set("hits", cache.stats.hits);
  jcache.set("misses", cache.stats.misses);
  jcache.set("negative_hits", cache.stats.negative_hits);
  jcache.set("invalidations", cache.stats.invalidations);
  jcache.set("evictions", cache.stats.evictions);
  jcache.set("hit_rate", cache.hit_rate);
  doc.set("cache", std::move(jcache));

  benchsup::Json jov = benchsup::Json::object();
  jov.set("offered_per_sec", ov.offered_per_sec);
  jov.set("lookups_offered", ov.lookups_offered);
  jov.set("answered", ov.answered);
  jov.set("answered_nonempty", ov.answered_nonempty);
  jov.set("shed", ov.shed);
  jov.set("max_queue", ov.max_queue);
  jov.set("capacity", ov.capacity);
  jov.set("issues_filed", ov.issues_filed);
  jov.set("hdr_count", ov.hdr_count);
  jov.set("p50_us", ov.p50_us);
  jov.set("p99_us", ov.p99_us);
  jov.set("p99_bound_us", ov.p99_bound_us);
  doc.set("overload", std::move(jov));

  benchsup::Json jgw = benchsup::Json::object();
  jgw.set("sessions", static_cast<std::uint64_t>(gw.sessions));
  jgw.set("renewals_per_session", kRenewalsPerSession);
  jgw.set("naive_wakeups", gw.naive_wakeups);
  jgw.set("gateway_wakeups", gw.gateway_wakeups);
  jgw.set("expired", gw.expired);
  jgw.set("reduction", reduction);
  jgw.set("sessions_per_sec", gw.sessions_per_sec);
  jgw.set("fingerprint", hex64(gw.fingerprint));
  doc.set("gateway", std::move(jgw));

  benchsup::Json jfleet = benchsup::Json::object();
  jfleet.set("shards", static_cast<std::uint64_t>(shards));
  benchsup::Json jw = benchsup::Json::array();
  benchsup::Json jf = benchsup::Json::array();
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    jw.push(static_cast<std::uint64_t>(worker_counts[i]));
    jf.push(hex64(fleet_fps[i]));
  }
  jfleet.set("worker_counts", std::move(jw));
  jfleet.set("fingerprints", std::move(jf));
  doc.set("fleet", std::move(jfleet));

  benchsup::Json gates = benchsup::Json::object();
  gates.set("index_matches_oracle", index_matches);
  gates.set("index_speedup_ok", speedup_ok);
  gates.set("cache_hit_rate_ok", hit_rate_ok);
  gates.set("overload_shed_engaged", shed_engaged);
  gates.set("overload_queue_bounded", queue_bounded);
  gates.set("overload_p99_bounded", p99_bounded);
  gates.set("gateway_reduction_ok", reduction_ok);
  gates.set("gateway_deterministic", gateway_deterministic);
  gates.set("fleet_fingerprint_stable", fleet_stable);
  doc.set("gates", std::move(gates));

  if (!doc.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "disco_bench: one or more gates FAILED\n");
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
