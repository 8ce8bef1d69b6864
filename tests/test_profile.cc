/**
 * @file
 * Second-generation observability tests (src/obs): the guest sampling
 * profiler's serial-vs-parallel bit-equality and zero-perturbation
 * guarantees, the metrics time-series (deltas must sum to the final
 * counters), and the always-on flight recorder's post-mortem triggers
 * (error flag, link-watchdog abort, deadlock detection).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "net/network.hh"
#include "net/occam_boot.hh"
#include "net/peripherals.hh"
#include "obs/flight.hh"
#include "obs/profile.hh"
#include "obs/timeseries.hh"
#include "par/parallel_engine.hh"
#include "tasm/assembler.hh"

using namespace transputer;
using namespace transputer::net;

namespace
{

/** Dense sampling so even the short test workloads collect plenty of
 *  profile cells and time-series points. */
core::Config
obsConfig()
{
    core::Config cfg;
    cfg.profileInterval = 64;        // cycles between PC samples
    cfg.timeseriesInterval = 20'000; // ns between counter snapshots
    return cfg;
}

struct Rig
{
    Network net;
    std::unique_ptr<ConsoleSink> console;
};

std::string
forwarder(int in_link, int out_link, int n)
{
    return "CHAN in, out:\n"
           "PLACE in AT LINK" + std::to_string(in_link) + "IN:\n"
           "PLACE out AT LINK" + std::to_string(out_link) + "OUT:\n"
           "VAR x:\n"
           "SEQ i = [1 FOR " + std::to_string(n) + "]\n"
           "  SEQ\n"
           "    in ? x\n"
           "    out ! x + 1\n";
}

/** 4-node pipeline streaming words into a console (the test_obs
 *  topology, denser traffic). */
void
buildPipelineRig(Rig &r)
{
    auto ids = buildPipeline(r.net, 4, obsConfig());
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    bootOccamSource(r.net, ids[0],
                    "CHAN out:\nPLACE out AT LINK1OUT:\n"
                    "SEQ i = [1 FOR 8]\n"
                    "  out ! i * 100\n");
    bootOccamSource(r.net, ids[1], forwarder(dir::west, dir::east, 8));
    bootOccamSource(r.net, ids[2], forwarder(dir::west, dir::east, 8));
    bootOccamSource(r.net, ids[3],
                    "CHAN in, out:\n"
                    "PLACE in AT LINK3IN:\nPLACE out AT LINK0OUT:\n"
                    "VAR x:\n"
                    "SEQ i = [1 FOR 8]\n"
                    "  SEQ\n"
                    "    in ? x\n"
                    "    out ! x\n");
}

/** 3 x 2 grid with tokens snaking through every node. */
void
buildGridRig(Rig &r)
{
    constexpr int w = 3, h = 2, tokens = 4;
    auto ids = buildGrid(r.net, w, h, obsConfig());
    auto outLink = [&](int x, int y) {
        if (y % 2 == 0)
            return x + 1 < w ? dir::east : dir::south;
        return x > 0 ? dir::west : dir::south;
    };
    auto inLink = [&](int x, int y) {
        if (y % 2 == 0)
            return x > 0 ? dir::west : dir::north;
        return x + 1 < w ? dir::east : dir::north;
    };
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    const int endX = (h - 1) % 2 == 0 ? w - 1 : 0;
    const int endId = ids[(h - 1) * w + endX];
    r.net.attachPeripheral(endId, dir::south, *r.console);
    bootOccamSource(r.net, ids[0],
                    "CHAN out:\nPLACE out AT LINK" +
                        std::to_string(outLink(0, 0)) + "OUT:\n"
                        "SEQ i = [1 FOR " + std::to_string(tokens) +
                        "]\n  out ! i * 10\n");
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            if (x == 0 && y == 0)
                continue;
            const int id = ids[y * w + x];
            const int out = id == endId ? dir::south : outLink(x, y);
            bootOccamSource(r.net, id,
                            forwarder(inLink(x, y), out, tokens));
        }
    }
}

using BuildFn = void (*)(Rig &);

/**
 * The headline determinism guarantee: sampling is keyed off the
 * simulated clocks, so the folded profile and the architectural
 * time-series are byte-identical between a serial run and any
 * shard-parallel run of the same workload.
 */
void
checkProfileEquivalence(BuildFn build, int threads,
                        const std::string &what)
{
    SCOPED_TRACE(what);
    Rig serial, parallel;
    build(serial);
    build(parallel);
    serial.net.setProfileEnabled(true);
    serial.net.setTimeseriesEnabled(true);
    serial.net.run();
    parallel.net.setProfileEnabled(true);
    parallel.net.setTimeseriesEnabled(true);
    RunOptions opts;
    opts.threads = threads;
    parallel.net.run(maxTick, opts);

    const std::string foldedA = obs::foldedProfile(serial.net);
    const std::string foldedB = obs::foldedProfile(parallel.net);
    EXPECT_FALSE(foldedA.empty());
    EXPECT_EQ(foldedA, foldedB);

    // tier attribution is host-side (which execution tier retired a
    // boundary can depend on event batching), so only the archOnly
    // time-series is deterministic -- and it must be byte-identical
    const std::string tsA = obs::timeseriesJson(serial.net, true);
    const std::string tsB = obs::timeseriesJson(parallel.net, true);
    EXPECT_EQ(tsA, tsB);

    // and sampling actually happened
    uint64_t samples = 0;
    for (size_t i = 0; i < serial.net.size(); ++i)
        samples += serial.net.node(static_cast<int>(i))
                       .profiler()
                       ->totalSamples();
    EXPECT_GT(samples, 0u);
}

/** FNV-1a over a node's full memory image. */
uint64_t
memHash(core::Transputer &t)
{
    const auto &m = t.memory();
    uint64_t h = 1469598103934665603ull;
    const Word base = m.base();
    for (Word i = 0; i < m.size(); ++i) {
        h ^= m.readByte(t.shape().truncate(base + i));
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

TEST(ProfilePar, PipelineProfileBitIdentical)
{
    checkProfileEquivalence(buildPipelineRig, 2, "pipeline x2");
    checkProfileEquivalence(buildPipelineRig, 4, "pipeline x4");
}

TEST(ProfilePar, GridProfileBitIdentical)
{
    checkProfileEquivalence(buildGridRig, 3, "grid 3x2 x3");
}

// ---------------------------------------------------------------------
// profiling on vs off: architectural state is bit-identical
// ---------------------------------------------------------------------

TEST(ProfilePerturbation, ProfilerLeavesArchitecturalStateIdentical)
{
    Rig plain, profiled;
    buildPipelineRig(plain);
    buildPipelineRig(profiled);
    profiled.net.setProfileEnabled(true);
    profiled.net.setTimeseriesEnabled(true);
    plain.net.run();
    profiled.net.run();
    EXPECT_EQ(plain.net.queue().now(), profiled.net.queue().now());
    ASSERT_EQ(plain.net.size(), profiled.net.size());
    for (size_t i = 0; i < plain.net.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        auto &a = plain.net.node(static_cast<int>(i));
        auto &b = profiled.net.node(static_cast<int>(i));
        EXPECT_EQ(a.instructions(), b.instructions());
        EXPECT_EQ(a.cycles(), b.cycles());
        EXPECT_EQ(a.localTime(), b.localTime());
        EXPECT_EQ(static_cast<int>(a.state()),
                  static_cast<int>(b.state()));
        EXPECT_EQ(a.iptr(), b.iptr());
        EXPECT_EQ(a.wptr(), b.wptr());
        EXPECT_EQ(a.areg(), b.areg());
        EXPECT_EQ(a.breg(), b.breg());
        EXPECT_EQ(a.creg(), b.creg());
        EXPECT_EQ(memHash(a), memHash(b));
        EXPECT_TRUE(obs::sameArchitectural(a.counters(), b.counters()));
    }
    EXPECT_EQ(plain.console->bytes(), profiled.console->bytes());
}

// ---------------------------------------------------------------------
// the profiler histogram itself
// ---------------------------------------------------------------------

TEST(Profiler, AttributesCatchUpSamples)
{
    obs::Profiler p(100);
    EXPECT_EQ(p.interval(), 100u);
    p.sample(0x80000100, 0x80000040, obs::kTierPlain, 1);
    p.sample(0x80000100, 0x80000040, obs::kTierFused, 3);
    p.sample(0x80000101, 0x80000044, obs::kTierBlock, 1);
    EXPECT_EQ(p.totalSamples(), 5u);
    ASSERT_EQ(p.cells().size(), 2u);
    const auto &c = p.cells().at({0x80000100, 0x80000040});
    EXPECT_EQ(c.samples, 4u);
    EXPECT_EQ(c.tier[obs::kTierPlain], 1u);
    EXPECT_EQ(c.tier[obs::kTierFused], 3u);
    p.clear();
    EXPECT_EQ(p.totalSamples(), 0u);
    EXPECT_TRUE(p.cells().empty());
}

// ---------------------------------------------------------------------
// time-series: deltas sum to the final counters
// ---------------------------------------------------------------------

TEST(TimeSeries, DeltasSumToFinalCounters)
{
    Rig r;
    buildPipelineRig(r);
    r.net.setTimeseriesEnabled(true);
    r.net.run();
    bool sawPoints = false;
    for (size_t i = 0; i < r.net.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        auto &node = r.net.node(static_cast<int>(i));
        const obs::TimeSeries *ts = node.timeSeries();
        ASSERT_NE(ts, nullptr);
        sawPoints = sawPoints || ts->size() > 0;
        // the exporter's final live point makes the cumulative series
        // end exactly at the final counters, so the deltas (each
        // point minus its predecessor, zero origin) telescope to them
        std::vector<obs::TsPoint> pts;
        ts->forEach([&](const obs::TsPoint &p) { pts.push_back(p); });
        pts.push_back(node.tsCapture(node.localTime()));
        obs::TsPoint sum; // accumulate the deltas
        obs::TsPoint prev;
        for (const obs::TsPoint &p : pts) {
            EXPECT_GE(p.instructions, prev.instructions);
            EXPECT_GE(p.cycles, prev.cycles);
            sum.instructions += p.instructions - prev.instructions;
            sum.cycles += p.cycles - prev.cycles;
            sum.icacheHits += p.icacheHits - prev.icacheHits;
            sum.linkBytesOut += p.linkBytesOut - prev.linkBytesOut;
            sum.linkBytesIn += p.linkBytesIn - prev.linkBytesIn;
            sum.processStarts += p.processStarts - prev.processStarts;
            sum.idleTicks += p.idleTicks - prev.idleTicks;
            prev = p;
        }
        const obs::Counters c = node.counters();
        EXPECT_EQ(sum.instructions, c.instructions);
        EXPECT_EQ(sum.cycles, c.cycles);
        EXPECT_EQ(sum.icacheHits, c.icacheHits);
        EXPECT_EQ(sum.processStarts, c.processStarts);
        EXPECT_EQ(sum.idleTicks, c.idleTicks);
        EXPECT_EQ(sum.linkBytesOut, node.linkBytesOutLive());
        EXPECT_EQ(sum.linkBytesIn, node.linkBytesInLive());
    }
    EXPECT_TRUE(sawPoints);
    // the per-node live byte tallies agree with the engines' totals
    uint64_t liveOut = 0, engOut = 0;
    for (size_t i = 0; i < r.net.size(); ++i)
        liveOut += r.net.node(static_cast<int>(i)).linkBytesOutLive();
    r.net.forEachEngine(
        [&](link::LinkEngine &e) { engOut += e.bytesSent(); });
    EXPECT_EQ(liveOut, engOut);
    // and the JSON export carries the series
    const std::string json = obs::timeseriesJson(r.net);
    for (const char *key :
         {"\"interval_ns\"", "\"d_instructions\"", "\"d_cycles\"",
          "\"icache_hit_rate\"", "\"d_link_bytes_out\"", "\"q_lo\"",
          "\"deopt_rate\"", "\"imbalance\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(TimeSeries, RingWrapsAndCountsDrops)
{
    obs::TimeSeries ts(1000, 2); // capacity 4
    EXPECT_EQ(ts.capacity(), 4u);
    for (int i = 0; i < 10; ++i) {
        obs::TsPoint p;
        p.tick = static_cast<Tick>(i) * 1000;
        ts.push(p);
    }
    EXPECT_EQ(ts.total(), 10u);
    EXPECT_EQ(ts.size(), 4u);
    EXPECT_EQ(ts.dropped(), 6u);
    std::vector<Tick> seen;
    ts.forEach([&](const obs::TsPoint &p) { seen.push_back(p.tick); });
    EXPECT_EQ(seen, (std::vector<Tick>{6000, 7000, 8000, 9000}));
}

// ---------------------------------------------------------------------
// flight recorder: post-mortem triggers and the auto-dump
// ---------------------------------------------------------------------

namespace
{

/** Whole file as a string (empty if absent). */
std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

} // namespace

TEST(Flight, QuietRunDoesNotTrigger)
{
    Rig r;
    buildPipelineRig(r);
    r.net.run();
    const obs::FlightReport rep =
        obs::evaluateFlightTriggers(r.net);
    EXPECT_FALSE(rep.triggered());
    EXPECT_FALSE(rep.deadlock);
    // the flight ring is on by default and saw the scheduler
    const obs::TraceBuffer *buf = r.net.node(0).flightBuffer();
    ASSERT_NE(buf, nullptr);
    EXPECT_GT(buf->total(), 0u);
}

TEST(Flight, DeadlockDetectorNamesTheBlockedProcess)
{
    // a process inputs from an internal channel nothing ever writes:
    // the queue drains with the process still blocked
    Network net;
    const int id = net.addTransputer(obsConfig(), "stuck");
    bootOccamSource(net, id,
                    "CHAN c:\nVAR x:\n"
                    "SEQ\n"
                    "  c ? x\n");
    const std::string prefix =
        testing::TempDir() + "tprofile_deadlock";
    obs::armFlightDump(net, prefix);
    net.run();

    const obs::FlightReport rep = obs::evaluateFlightTriggers(net);
    EXPECT_TRUE(rep.triggered());
    EXPECT_TRUE(rep.deadlock);
    ASSERT_EQ(rep.blocked.size(), 1u);
    EXPECT_EQ(rep.blocked[0].node, 0);
    EXPECT_FALSE(rep.blocked[0].onTimer);
    EXPECT_NE(rep.blocked[0].chan, 0u);

    // the armed post-run hook wrote both dump files
    const std::string txt = slurp(prefix + ".txt");
    EXPECT_NE(txt.find("deadlock=yes"), std::string::npos);
    EXPECT_NE(txt.find("waiting on channel"), std::string::npos);
    EXPECT_FALSE(slurp(prefix + ".trace.json").empty());
    std::remove((prefix + ".txt").c_str());
    std::remove((prefix + ".trace.json").c_str());

    // the text dump renders without a file too
    std::ostringstream os;
    obs::dumpFlightText(net, rep, os);
    EXPECT_NE(os.str().find("wait.chan"), std::string::npos);
}

TEST(Flight, WatchdogAbortTriggersTheDump)
{
    // total packet loss on the only line: the sender's transfers
    // stall until the armed watchdog abandons them
    Rig r;
    fault::FaultInjector injector;
    fault::FaultPlan plan;
    plan.line(0, 1).dataLoss = 1.0;
    auto ids = buildPipeline(r.net, 2, obsConfig());
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    r.net.setLinkWatchdogs(100'000);
    bootOccamSource(r.net, ids[0],
                    "CHAN out:\nPLACE out AT LINK1OUT:\n"
                    "SEQ i = [1 FOR 3]\n"
                    "  out ! i * 100\n");
    bootOccamSource(r.net, ids[1],
                    "CHAN in, out:\n"
                    "PLACE in AT LINK3IN:\nPLACE out AT LINK0OUT:\n"
                    "VAR x:\n"
                    "SEQ i = [1 FOR 3]\n"
                    "  SEQ\n"
                    "    in ? x\n"
                    "    out ! x\n");
    injector.arm(r.net, plan);
    const std::string prefix =
        testing::TempDir() + "tprofile_watchdog";
    obs::armFlightDump(r.net, prefix);
    r.net.run(r.net.queue().now() + 2'000'000);

    const obs::FlightReport rep = obs::evaluateFlightTriggers(r.net);
    EXPECT_TRUE(rep.watchdogAbort);
    EXPECT_GT(rep.outAborts + rep.inAborts, 0u);
    EXPECT_TRUE(rep.triggered());
    const std::string txt = slurp(prefix + ".txt");
    EXPECT_NE(txt.find("watchdog-aborts"), std::string::npos);
    EXPECT_NE(txt.find("link.abort"), std::string::npos);
    EXPECT_FALSE(slurp(prefix + ".trace.json").empty());
    std::remove((prefix + ".txt").c_str());
    std::remove((prefix + ".trace.json").c_str());
}

TEST(Flight, ErrorFlagTriggers)
{
    Network net;
    const int id = net.addTransputer(obsConfig(), "err");
    auto &node = net.node(id);
    const tasm::Image img =
        tasm::assemble("start: seterr\n stopp\n",
                       node.memory().memStart(), node.shape());
    net.bootImage(id, img);
    net.run();
    const obs::FlightReport rep = obs::evaluateFlightTriggers(net);
    EXPECT_TRUE(rep.errorFlag);
    EXPECT_TRUE(rep.triggered());
    ASSERT_EQ(rep.errorNodes.size(), 1u);
    EXPECT_EQ(rep.errorNodes[0], 0);
}

TEST(Flight, RingExcludesPerByteLinkChatter)
{
    EXPECT_FALSE(obs::flightWorthy(obs::Ev::LinkByte));
    EXPECT_FALSE(obs::flightWorthy(obs::Ev::LinkAck));
    EXPECT_TRUE(obs::flightWorthy(obs::Ev::Run));
    EXPECT_TRUE(obs::flightWorthy(obs::Ev::Deopt));
    Rig r;
    buildPipelineRig(r);
    r.net.run();
    for (size_t i = 0; i < r.net.size(); ++i) {
        const obs::TraceBuffer *buf =
            r.net.node(static_cast<int>(i)).flightBuffer();
        ASSERT_NE(buf, nullptr);
        buf->forEach([&](const obs::Record &rec) {
            EXPECT_NE(rec.ev, obs::Ev::LinkByte);
            EXPECT_NE(rec.ev, obs::Ev::LinkAck);
        });
    }
}
