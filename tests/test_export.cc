/**
 * @file
 * The JSON writer and the counter table (src/base/json.hh,
 * src/obs/counters.hh): escaping and number rules, hostile node names
 * through every network exporter, and the table's row classes as seen
 * by +=, sameArchitectural and the snapshot diff.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"
#include "net/network.hh"
#include "net/occam_boot.hh"
#include "obs/chrome_trace.hh"
#include "obs/counters.hh"
#include "obs/profile.hh"
#include "snap/format.hh"
#include "snap/snapshot.hh"

using namespace transputer;

namespace
{

// ---------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------

TEST(JsonWriter, CommasNestingAndScalars)
{
    JsonWriter w;
    w.beginObject()
        .field("n", 3)
        .field("neg", int64_t{-7})
        .field("ok", true)
        .field("s", "x")
        .key("a")
        .beginArray()
        .value(1)
        .beginObject()
        .end()
        .beginArray()
        .end()
        .end()
        .field("d", 0.5)
        .end();
    EXPECT_EQ(w.str(), "{\"n\": 3, \"neg\": -7, \"ok\": true, \"s\": "
                       "\"x\", \"a\": [1, {}, []], \"d\": 0.5}\n");
}

TEST(JsonWriter, NonFiniteDoublesAreNull)
{
    JsonWriter w;
    w.beginArray()
        .value(std::numeric_limits<double>::infinity())
        .value(-std::numeric_limits<double>::infinity())
        .value(std::nan(""))
        .value(1e300 * 1e300)
        .value(2.5)
        .end();
    EXPECT_EQ(w.str(), "[null, null, null, null, 2.5]\n");
}

TEST(JsonWriter, EscapesQuotesBackslashesControlAndHighBytes)
{
    JsonWriter w;
    w.beginObject().field("k\"", std::string("a\"b\\c\n\x01\x7f\xe9")).end();
    EXPECT_EQ(w.str(),
              "{\"k\\\"\": \"a\\\"b\\\\c\\u000a\\u0001\\u007f\\u00e9\"}\n");
}

TEST(JsonWriter, LineDepthAndStreaming)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 2);
        w.beginObject().key("rows").beginArray();
        for (int i = 0; i < 2; ++i)
            w.beginObject().field("i", i).field("sq", i * i).end();
        w.end().field("pass", false).end();
    }
    EXPECT_EQ(os.str(), "{\n"
                        "  \"rows\": [\n"
                        "    {\"i\": 0, \"sq\": 0},\n"
                        "    {\"i\": 1, \"sq\": 1}\n"
                        "  ],\n"
                        "  \"pass\": false\n"
                        "}\n");
}

// ---------------------------------------------------------------------
// hostile node names through the network exporters
// ---------------------------------------------------------------------

const std::string kHostile = "n\"q\\b\x01\xe9";
const std::string kEscaped = "n\\\"q\\\\b\\u0001\\u00e9";

void
expectEscapedName(const std::string &json, const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_NE(json.find("\"" + kEscaped + "\""), std::string::npos);
    EXPECT_EQ(json.find(kHostile), std::string::npos);
    EXPECT_EQ(json.find('\x01'), std::string::npos);
    EXPECT_EQ(json.find('\xe9'), std::string::npos);
    EXPECT_EQ(json.find("n\"q"), std::string::npos);
}

TEST(JsonExport, NodeNamesAreEscapedInEveryExporter)
{
    net::Network net;
    core::Config cfg;
    cfg.profileInterval = 64;
    cfg.timeseriesInterval = 20'000;
    const int id = net.addTransputer(cfg, kHostile);
    net::bootOccamSource(net, id,
                         "VAR x:\n"
                         "SEQ i = [1 FOR 2000]\n"
                         "  x := x + i\n");
    net.setTraceEnabled(true);
    net.setProfileEnabled(true);
    net.setTimeseriesEnabled(true);
    net.run();
    ASSERT_GT(net.counters().instructions, 0u);

    expectEscapedName(net.dumpMetrics(), "dumpMetrics");
    expectEscapedName(obs::profileJson(net, true), "profileJson");
    expectEscapedName(obs::timeseriesJson(net), "timeseriesJson");
    expectEscapedName(obs::chromeTrace(net), "chromeTrace");
}

/** Sum every `"key": <integer>` value in a JSON text. */
uint64_t
sumOf(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\": ";
    uint64_t sum = 0;
    for (size_t at = json.find(pat); at != std::string::npos;
         at = json.find(pat, at + 1))
        sum += std::stoull(json.substr(at + pat.size(), 24));
    return sum;
}

TEST(JsonExport, TimeseriesDeltasSumToTheFinalCounters)
{
    net::Network net;
    core::Config cfg;
    cfg.timeseriesInterval = 20'000;
    const int id = net.addTransputer(cfg);
    net::bootOccamSource(net, id,
                         "VAR x:\n"
                         "SEQ i = [1 FOR 2000]\n"
                         "  x := x + i\n");
    net.setTimeseriesEnabled(true);
    net.run();
    const std::string json = obs::timeseriesJson(net);
    const obs::Counters c = net.node(id).counters();
    ASSERT_GT(net.node(id).timeSeries()->size(), 2u);
    EXPECT_EQ(sumOf(json, "d_instructions"), c.instructions);
    EXPECT_EQ(sumOf(json, "d_cycles"), c.cycles);
}

// ---------------------------------------------------------------------
// the counter table
// ---------------------------------------------------------------------

/** A Counters with every slot distinct and non-zero. */
obs::Counters
numbered()
{
    obs::Counters c;
    uint64_t n = 1;
    for (const obs::CounterRow &r : obs::kCounterRows)
        for (size_t i = 0; i < r.width; ++i)
            obs::counterSlots(c, r)[i] = n++;
    return c;
}

TEST(CounterTable, RowsHaveDistinctNames)
{
    std::vector<std::string> names;
    for (const obs::CounterRow &r : obs::kCounterRows) {
        for (const std::string &n : names)
            EXPECT_NE(n, r.name);
        names.emplace_back(r.name);
        EXPECT_GE(r.width, 1u) << r.name;
    }
}

TEST(CounterTable, ClassesFollowTheCounterFamilies)
{
    const auto starts = [](const std::string &s, const char *pre) {
        return s.rfind(pre, 0) == 0;
    };
    for (const obs::CounterRow &r : obs::kCounterRows) {
        const std::string n = r.name;
        using C = obs::CounterClass;
        const C want = starts(n, "icache_") ? C::cache
                       : starts(n, "fused_") || starts(n, "blockc_")
                           ? C::host
                           : C::arch;
        EXPECT_EQ(r.cls, want) << n;
    }
}

TEST(CounterTable, PlusEqualsDoublesEveryRow)
{
    const obs::Counters base = numbered();
    obs::Counters c = base;
    c += base;
    for (const obs::CounterRow &r : obs::kCounterRows)
        for (size_t i = 0; i < r.width; ++i)
            EXPECT_EQ(obs::counterSlots(c, r)[i],
                      2 * obs::counterSlots(base, r)[i])
                << r.name << "[" << i << "]";
}

TEST(CounterTable, SameArchitecturalSeesArchAndCacheRowsOnly)
{
    const obs::Counters base = numbered();
    for (const obs::CounterRow &r : obs::kCounterRows) {
        for (size_t i = 0; i < r.width; ++i) {
            obs::Counters bumped = base;
            ++obs::counterSlots(bumped, r)[i];
            EXPECT_EQ(obs::sameArchitectural(base, bumped),
                      r.cls == obs::CounterClass::host)
                << r.name << "[" << i << "]";
        }
    }
}

TEST(CounterTable, JsonCarriesEveryRowName)
{
    const std::string json = obs::countersJson(numbered());
    for (const obs::CounterRow &r : obs::kCounterRows)
        EXPECT_NE(json.find("\"" + std::string(r.name) + "\": "),
                  std::string::npos)
            << r.name;
    EXPECT_NE(json.find("\"icache_hit_rate\": "), std::string::npos);
    EXPECT_NE(json.find("\"fused_mean_run\": "), std::string::npos);
    EXPECT_NE(json.find("\"bound\": "), std::string::npos);
}

/** A small captured network to diff counter rows against. */
snap::Snapshot
capturedLoop()
{
    net::Network net;
    const int id = net.addTransputer();
    net::bootOccamSource(net, id,
                         "VAR x:\n"
                         "SEQ i = [1 FOR 200]\n"
                         "  x := x + i\n");
    net.run();
    return snap::capture(net);
}

TEST(CounterTable, IgnoreCacheStatsSkipsExactlyCacheAndHostRows)
{
    const snap::Snapshot base = capturedLoop();
    snap::DiffOptions all, archOnly;
    archOnly.ignoreCacheStats = true;
    for (const obs::CounterRow &r : obs::kCounterRows) {
        snap::Snapshot bumped = base;
        ++obs::counterSlots(bumped.states.at(0).cpu.ctrs, r)[r.width - 1];
        const auto d = snap::divergences(base, bumped, all);
        ASSERT_EQ(d.size(), 1u) << r.name;
        EXPECT_NE(d[0].where.find(std::string("ctrs.") + r.name),
                  std::string::npos)
            << d[0].where;
        EXPECT_EQ(snap::divergences(base, bumped, archOnly).empty(),
                  r.cls != obs::CounterClass::arch)
            << r.name;
    }
}

TEST(CounterTable, SnapshotRoundTripsEveryRow)
{
    snap::Snapshot s = capturedLoop();
    s.states.at(0).cpu.ctrs = numbered();
    const snap::Snapshot back = snap::decode(snap::encode(s));
    EXPECT_TRUE(snap::divergences(s, back).empty());
}

TEST(CounterTable, PreviousFormatVersionIsRefused)
{
    std::vector<uint8_t> img = snap::encode(capturedLoop());
    const uint32_t old = snap::formatVersion - 1;
    for (int b = 0; b < 4; ++b)
        img[4 + b] = static_cast<uint8_t>(old >> (8 * b));
    try {
        snap::decode(img);
        FAIL() << "a v" << old << " image decoded";
    } catch (const snap::SnapError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported snapshot version " +
                      std::to_string(old)),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
