/**
 * @file
 * Routing-fabric robustness bench: delivery, reroute latency and
 * hop-stretch on an 8x8 torus (results to stdout and
 * BENCH_route.json).
 *
 * Three scenarios, same workload: the RoutedQuery root floods a key
 * to all 63 terminals, twice -- once while the fault plan is landing
 * (wave 1) and once in the post-fault steady state (wave 2):
 *
 *   clean        no faults; the baseline for hops and wave latency
 *   loss10       10% data loss + 5% ack loss + 1% corruption on every
 *                trunk line; the ARQ ladders repair everything
 *   loss10_kill3 the same wire, plus three interior nodes killed
 *                mid-wave; the switches reroute around the corpses
 *
 * The bar is the tentpole's robustness contract, not speed: in every
 * scenario each live terminal answers exactly once with the exact
 * payload, and each killed destination resolves to an explicit
 * undeliverable notice in the steady-state wave -- never a hang.
 * Reroute latency is the wave-2 completion time (inject to last live
 * reply) against the clean baseline, and hop-stretch is the mean
 * delivered-packet hop count against the same baseline; both are
 * simulated-time metrics, so they are deterministic run to run.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "apps/routedquery.hh"
#include "fault/fault.hh"

#include "util.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr Tick waveBudget = 30'000'000'000; ///< sim ns per wave

struct ScenarioResult
{
    std::string name;
    int liveTerminals = 0;
    int killedTerminals = 0;
    double deliveryPct = 0;  ///< live replies / live terminals (w2)
    bool exact = false;      ///< every reply payload right, no dupes
    bool resolved = false;   ///< every killed dest noticed in wave 2
    double wave1Ms = 0;      ///< inject -> last answer, faults landing
    double wave2Ms = 0;      ///< inject -> last live reply, steady
    double avgHops = 0;      ///< routeHops / routeDelivered
    double hopStretch = 0;   ///< avgHops / clean avgHops
    uint64_t reroutes = 0;
    uint64_t linkFloods = 0;
    uint64_t retransmits = 0;
    uint64_t undeliverable = 0;
    uint64_t congestionDrops = 0;
    uint64_t hopDrops = 0;
    uint64_t ttlDrops = 0;
    double hostSecs = 0;
};

/** Answers [from, end) split per source node. */
std::map<Word, int>
perNode(const std::vector<apps::RoutedAnswer> &answers, size_t from)
{
    std::map<Word, int> out;
    for (size_t i = from; i < answers.size(); ++i)
        ++out[answers[i].src];
    return out;
}

ScenarioResult
runScenario(const std::string &name, bool loss,
            const std::vector<int> &victims)
{
    ScenarioResult r;
    r.name = name;
    const double host0 = cpuSeconds();

    apps::RoutedQueryConfig cfg;
    cfg.topo = route::Topology::torus(8, 8);
    apps::RoutedQuery rq(cfg);
    route::Fabric &fab = rq.fabric();

    fault::FaultPlan plan;
    plan.seed = 4242;
    if (loss)
        for (int a = 0; a < fab.topo().size(); ++a)
            for (const int b : fab.topo().ports[a])
                if (a < b) {
                    fault::LineFaultConfig &f =
                        plan.line(fab.netNode(a), fab.netNode(b));
                    f.dataLoss = 0.10;
                    f.ackLoss = 0.05;
                    f.corrupt = 0.01;
                    plan.line(fab.netNode(b), fab.netNode(a)) = f;
                }
    // kills land while wave 1 is in flight
    const Tick now0 = rq.network().queue().now();
    for (size_t i = 0; i < victims.size(); ++i)
        plan.node(fab.netNode(victims[i])).killAt =
            now0 + 300'000 + 100'000 * static_cast<Tick>(i);
    fault::FaultInjector injector;
    if (loss || !victims.empty())
        injector.arm(rq.network(), plan);

    // wave 1: queries race the fault plan
    const Word key1 = 20;
    const Tick t1 = rq.network().queue().now();
    rq.queryAll(key1);
    rq.network().run(t1 + waveBudget);
    const size_t wave1End = rq.answers().size();
    Tick last1 = t1;
    for (const auto &a : rq.answers())
        last1 = std::max(last1, a.when);
    r.wave1Ms = static_cast<double>(last1 - t1) / 1e6;

    // wave 2: the fabric has rerouted; this is the steady state the
    // delivery and latency bars apply to
    const Word key2 = 40;
    const Tick t2 = rq.network().queue().now();
    rq.queryAll(key2);
    rq.network().run(t2 + waveBudget);
    {
        const size_t before = rq.answers().size();
        rq.network().run(rq.network().queue().now() +
                         5'000'000'000);
        if (rq.answers().size() != before)
            std::cout << name << ": " << rq.answers().size() - before
                      << " answers arrived after the wave budget\n";
    }

    Tick lastLive = t2;
    r.exact = true;
    const auto w2 = perNode(rq.answers(), wave1End);
    std::map<Word, int> notices;
    for (size_t i = wave1End; i < rq.answers().size(); ++i) {
        const auto &a = rq.answers()[i];
        if (a.vchan == 0) {
            if (a.word != key2 + 1)
                r.exact = false;
            lastLive = std::max(lastLive, a.when);
        } else {
            ++notices[a.src];
        }
    }
    int liveReplies = 0;
    r.resolved = true;
    for (int t = 1; t < rq.nodes(); ++t) {
        const bool killed = fab.cpu(t).killed();
        const int got = w2.count(t) ? w2.at(t) : 0;
        if (killed) {
            ++r.killedTerminals;
            if (!notices.count(t))
                r.resolved = false;
        } else {
            ++r.liveTerminals;
            if (got == 1 && !notices.count(t)) {
                ++liveReplies;
            } else {
                r.exact = false; // silence, duplicate, or a notice
                std::cout << name << ": live terminal " << t
                          << " resolved " << got << " times in wave 2"
                          << (notices.count(t) ? " (incl. a notice)"
                                               : "")
                          << "\n";
            }
        }
    }
    r.deliveryPct = r.liveTerminals
                        ? 100.0 * liveReplies / r.liveTerminals
                        : 0.0;
    r.wave2Ms = static_cast<double>(lastLive - t2) / 1e6;

    const obs::Counters c = fab.counters();
    r.avgHops = c.routeDelivered
                    ? static_cast<double>(c.routeHops) /
                          static_cast<double>(c.routeDelivered)
                    : 0.0;
    r.reroutes = c.routeReroutes;
    r.linkFloods = c.routeLinkFloods;
    r.retransmits = c.routeRetransmits;
    r.undeliverable = c.routeUndeliverable;
    r.congestionDrops = c.routeCongestionDrops;
    r.hopDrops = c.routeHopDrops;
    r.ttlDrops = c.routeTtlDrops;
    r.hostSecs = cpuSeconds() - host0;
    return r;
}

} // namespace

int
main()
{
    heading("routing fabric: delivery, reroute latency, hop-stretch");

    std::vector<ScenarioResult> rs;
    rs.push_back(runScenario("clean", false, {}));
    rs.push_back(runScenario("loss10", true, {}));
    rs.push_back(runScenario("loss10_kill3", true, {18, 27, 45}));
    const double cleanHops = rs[0].avgHops;
    const double cleanWave = rs[0].wave2Ms;
    for (auto &r : rs)
        r.hopStretch = cleanHops > 0 ? r.avgHops / cleanHops : 0.0;

    Table t({14, 10, 9, 10, 10, 9, 9, 9, 9});
    t.row("scenario", "delivery", "exact", "w2 (ms)", "hops/pkt",
          "stretch", "reroute", "floods", "rexmit");
    t.rule();
    bool pass = true;
    for (const auto &r : rs) {
        t.row(r.name, r.deliveryPct, r.exact ? "yes" : "NO", r.wave2Ms,
              r.avgHops, r.hopStretch, r.reroutes, r.linkFloods,
              r.retransmits);
        pass = pass && r.exact && r.resolved &&
               r.deliveryPct == 100.0;
    }
    t.rule();

    const auto &k = rs[2];
    std::cout << "\nreroute latency: steady-state wave "
              << k.wave2Ms << " ms with 3 dead nodes vs " << cleanWave
              << " ms clean (+"
              << (cleanWave > 0
                      ? 100.0 * (k.wave2Ms / cleanWave - 1.0)
                      : 0.0)
              << "%), hop-stretch " << k.hopStretch << "\n"
              << "robustness bar (100% live delivery, exact, every "
              << "killed dest noticed): " << (pass ? "yes" : "NO")
              << "\n";

    std::ofstream out("BENCH_route.json");
    JsonWriter json(out, 2);
    json.beginObject()
        .field("bench", "route_fabric_robustness")
        .field("topology", "torus8x8")
        .field("pass", pass)
        .field("clean_avg_hops", cleanHops)
        .field("clean_wave_ms", cleanWave)
        .key("scenarios")
        .beginArray();
    for (const auto &r : rs)
        json.beginObject()
            .field("name", r.name)
            .field("live_terminals", r.liveTerminals)
            .field("killed_terminals", r.killedTerminals)
            .field("delivery_pct", r.deliveryPct)
            .field("exact", r.exact)
            .field("killed_resolved", r.resolved)
            .field("wave1_ms", r.wave1Ms)
            .field("wave2_ms", r.wave2Ms)
            .field("avg_hops", r.avgHops)
            .field("hop_stretch", r.hopStretch)
            .field("reroutes", r.reroutes)
            .field("link_floods", r.linkFloods)
            .field("retransmits", r.retransmits)
            .field("undeliverable", r.undeliverable)
            .field("congestion_drops", r.congestionDrops)
            .field("hop_drops", r.hopDrops)
            .field("ttl_drops", r.ttlDrops)
            .field("host_secs", r.hostSecs)
            .end();
    json.end().end();
    std::cout << "wrote BENCH_route.json\n";
    return pass ? 0 : 1;
}
