/**
 * @file
 * Tests of the benchmark's own checks: each answer check must reject
 * a wrong answer, a failed or missing operation must be counted, and
 * the result line must carry what it was given.  Plain checks that
 * stay on in every build type; exits non-zero on the first failure.
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <string>
#include <vector>

#include "checks.hh"
#include "measure.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

#define EXPECT(cond)                                                   \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
            ++failures;                                                \
        }                                                              \
    } while (0)

void
dbsearchCounts()
{
    // 2 nodes x 3 records, key space 5: node 0 holds 0, 2, 4 and
    // node 1 holds 1, 3, 0 (id*31 + i*7, mod 5)
    EXPECT(dbCount(2, 3, 5, 0) == 2);
    EXPECT(dbCount(2, 3, 5, 4) == 1);
    // the Fig. 8 board spreads its 25600 records over 55 keys
    uint32_t total = 0;
    for (uint32_t k = 0; k < 55; ++k)
        total += dbCount(128, 200, 55, k);
    EXPECT(total == 128u * 200u);

    // a round's keys count pairwise differently, so answers that come
    // back swapped, or carry another query's count, fail
    Rng rng(7);
    const std::vector<uint32_t> keys = dbQueryKeys(rng, 8, 128, 200, 55);
    std::vector<uint32_t> counts;
    for (const uint32_t k : keys)
        counts.push_back(dbCount(128, 200, 55, k));
    for (size_t i = 0; i < counts.size(); ++i)
        for (size_t j = i + 1; j < counts.size(); ++j) {
            auto swapped = counts;
            std::swap(swapped[i], swapped[j]);
            EXPECT(countMismatches(counts, swapped) == 2);
        }
    auto shifted = counts;
    shifted[3] = counts[4];
    EXPECT(countMismatches(counts, shifted) == 1);
    // the old key space of 50 counts every stored key 512: too few
    // distinct counts for 8 queries
    bool threw = false;
    try {
        dbQueryKeys(rng, 8, 128, 200, 50);
    } catch (const std::exception &) {
        threw = true;
    }
    EXPECT(threw);

    const std::vector<uint32_t> expected = {512, 510, 514};
    EXPECT(countMismatches(expected, {512, 510, 514}) == 0);
    EXPECT(countMismatches(expected, {512, 511, 514}) == 1);
    // a missing answer is a failed operation, not a dropped one
    EXPECT(countMismatches(expected, {512}) == 2);
    EXPECT(countMismatches(expected, {}) == 3);
}

void
floodTotals()
{
    const uint32_t wh = 320 * 313;
    EXPECT(countMismatches({wh, wh}, {wh, wh}) == 0);
    EXPECT(countMismatches({wh, wh}, {wh, wh - 1}) == 1);
}

void
routedWaves()
{
    const int terminals = 3;
    const std::vector<uint32_t> keys = {0, 10, 20, 30};
    const std::vector<RoutedReply> good = {
        {2, 0, 21}, {1, 0, 11}, {3, 0, 31}};
    EXPECT(routedWaveFailures(good, terminals, keys) == 0);

    auto wrong = good;
    wrong[0].word = 20; // key, not key + 1
    EXPECT(routedWaveFailures(wrong, terminals, keys) == 1);

    auto dup = good;
    dup.push_back({1, 0, 11}); // terminal 1 replied twice
    EXPECT(routedWaveFailures(dup, terminals, keys) == 1);

    auto missing = good;
    missing.pop_back(); // terminal 3 never replied
    EXPECT(routedWaveFailures(missing, terminals, keys) == 1);

    auto notice = good;
    notice.push_back({2, 255, 0}); // an undeliverable notice
    EXPECT(routedWaveFailures(notice, terminals, keys) ==
           static_cast<uint64_t>(terminals));
}

void
e7Cycles()
{
    // ldc 5; stl 1: two one-cycle instructions
    const LoopCost c = segmentCost({0x45, 0xD1}, false);
    EXPECT(c.instructions == 2 && c.cycles == 2);
    // pfix 1; ldl 14 (ldl 30): prefix 1 + ldl 2
    EXPECT(segmentCost({0x21, 0x7E}, false).cycles == 3);
    // cj: 2 untaken, 4 taken
    EXPECT(segmentCost({0xA3}, false).cycles == 2);
    EXPECT(segmentCost({0xA3}, true).cycles == 4);
    // pfix 1; opr 5 is stopp, 1 + 11
    EXPECT(segmentCost({0x21, 0xF5}, false).cycles == 12);
    bool threw = false;
    try {
        segmentCost({0x91}, false); // call: not in the loop's table
    } catch (const std::exception &) {
        threw = true;
    }
    EXPECT(threw);

    // a short run of the real loop on every tier meets the closed
    // form, and a closed form for another count does not
    for (int tier = 0; tier < 3; ++tier) {
        transputer::core::Config cfg;
        cfg.predecode = tier > 0;
        cfg.blockCompile = tier > 1;
        E7Rig rig(cfg, 1000);
        rig.run();
        const auto &cpu = rig.net.node(0);
        EXPECT(cpu.instructions() == rig.expect.instructions);
        EXPECT(cpu.cycles() == rig.expect.cycles);
        E7Rig other(cfg, 1001);
        EXPECT(cpu.instructions() != other.expect.instructions);
        EXPECT(cpu.cycles() != other.expect.cycles);
    }
}

void
linkRate()
{
    // 8192 bytes at 1.1 us each
    EXPECT(linkRateOk(8192, 8192 * 1100));
    EXPECT(linkRateOk(8192, 8192 * 1100 + 5000));
    // 1 MB/s would be a wrong protocol (no stop bits)
    EXPECT(!linkRateOk(8192, 8192 * 1000));
    EXPECT(!linkRateOk(8192, 0));
}

void
roundStatistics()
{
    // one slow outlier round does not move the interquartile mean
    EXPECT(interquartileMean({1.0, 2.0, 3.0, 100.0}) == 2.5);
    EXPECT(interquartileMean({4.0, 1.0, 3.0, 2.0, 100.0}) == 3.0);
    EXPECT(interquartileMean({5.0, 7.0}) == 6.0);
    EXPECT(interquartileMean({}) == 0.0);
    EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
}

void
resultLine()
{
    Outcome o;
    o.correct = true;
    o.attempted = 40;
    o.failed = 3;
    o.metrics = {{"run_s", "s", 0.125}, {"sim_us", "us", 1234.5}};
    const std::string j = resultJson(o);
    EXPECT(j == "{\"correct\": true, \"attempted\": 40, \"failed\": 3, "
                "\"metrics\": {\"run_s\": {\"value\": 0.125, \"unit\": "
                "\"s\"}, \"sim_us\": {\"value\": 1234.5, \"unit\": "
                "\"us\"}}}");
}

} // namespace

int
main()
{
    dbsearchCounts();
    floodTotals();
    routedWaves();
    e7Cycles();
    linkRate();
    roundStatistics();
    resultLine();
    if (failures) {
        std::printf("%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("all benchmark self-tests passed\n");
    return 0;
}
