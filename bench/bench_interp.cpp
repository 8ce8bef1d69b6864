/**
 * @file
 * Host-side interpreter throughput across the three execution tiers
 * (see DESIGN.md "Interpreter fast path" and "Block compiler"):
 *
 *   plain   -- byte-at-a-time interpreter (predecode off);
 *   fused   -- predecoded chains + the fused inner loop;
 *   blockc  -- the block-compiler tier (threaded superblocks) on top.
 *
 * Two workloads:
 *   - the E7 MIPS loop (straight-line single-cycle code, the block
 *     tier's best case; acceptance: blockc >= 3.5x plain);
 *   - the database-search kernel on a small grid (channels, links and
 *     scheduling in the mix; acceptance: blockc >= 1.8x plain),
 *     toggled through the node configuration.
 *
 * Pass/fail uses the MEDIAN of per-repetition speedup RATIOS: each
 * timed repetition runs all three tiers back to back, so a noise
 * burst on a shared host (CPU steal, frequency ramp) lands on the
 * whole triple and mostly cancels in the ratio, where per-tier
 * medians taken from separate batches would let one burst skew a
 * single tier.  The spread ((max-min)/median) of both the raw rates
 * and the ratios is reported so a noisy run is visible in the
 * artifact.  Simulated results (instructions, cycles) must be
 * identical across all three tiers -- both caches are architecturally
 * invisible; this harness checks that too and fails loudly if it
 * ever drifts.
 *
 * Results go to stdout plus BENCH_interp.json (the historical
 * fused-vs-plain artifact) and BENCH_blockc.json (the three-way
 * comparison).
 */

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/dbsearch.hh"

#include "util.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int warmup = 2; ///< discarded priming runs (cold caches,
                          ///< allocator growth, CPU frequency ramp)
constexpr int reps = 7;   ///< timed repetitions (median decides)

/** The three execution tiers under comparison. */
enum class Tier
{
    Plain,  ///< predecode off (blockc needs predecode: off too)
    Fused,  ///< predecode on, block compiler off
    Blockc, ///< predecode on, block compiler on
};

struct Measure
{
    double ips = 0;     ///< simulated instructions per wall second
    obs::Counters ctrs; ///< the run's counters
};

/** All timed repetitions of one workload at one tier. */
struct Result
{
    Measure best;             ///< rep with the highest instr/s
    std::vector<double> ips;  ///< every timed rep's instr/s

    double
    median() const
    {
        return medianOf(ips);
    }

    double
    spread() const
    {
        return spreadOf(ips);
    }

    void
    add(const Measure &m)
    {
        ips.push_back(m.ips);
        if (m.ips > best.ips)
            best = m;
    }
};

Measure
runE7Once(Tier tier)
{
    core::Config cfg;
    cfg.predecode = tier != Tier::Plain;
    cfg.blockCompile = tier == Tier::Blockc;
    AsmRig rig(cfg);
    const double t0 = cpuSeconds();
    // long enough that a transient host-noise burst (~100 ms) cannot
    // dominate any single tier's run
    rig.run(e7LoopSource(500'000));
    const double secs = cpuSeconds() - t0;
    Measure m{0, rig.cpu.counters()};
    m.ips = static_cast<double>(m.ctrs.instructions) / secs;
    return m;
}

Measure
runDbSearchOnce(Tier tier)
{
    apps::DbSearchConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.node.predecode = tier != Tier::Plain;
    cfg.node.blockCompile = tier == Tier::Blockc;
    auto db = std::make_unique<apps::DbSearch>(cfg);
    for (int q = 0; q < 12; ++q)
        db->inject(static_cast<Word>(7 * q + 3));
    const Tick limit = db->network().queue().now() + 6'000'000;
    const double t0 = cpuSeconds();
    db->network().run(limit);
    const double secs = cpuSeconds() - t0;
    Measure m{0, db->network().counters()};
    m.ips = static_cast<double>(m.ctrs.instructions) / secs;
    return m;
}

/** One workload measured across all tiers, tiers paired per rep. */
struct Samples
{
    Result plain, fused, blockc;
    std::vector<double> fusedRatio;  ///< per-rep fused/plain
    std::vector<double> blockcRatio; ///< per-rep blockc/plain
};

template <typename RunOnce>
Samples
measure(RunOnce once)
{
    Samples s;
    for (int r = -warmup; r < reps; ++r) {
        const Measure mp = once(Tier::Plain);
        const Measure mf = once(Tier::Fused);
        const Measure mb = once(Tier::Blockc);
        if (r < 0)
            continue; // warmup: prime before timing counts
        s.plain.add(mp);
        s.fused.add(mf);
        s.blockc.add(mb);
        if (mp.ips > 0) {
            s.fusedRatio.push_back(mf.ips / mp.ips);
            s.blockcRatio.push_back(mb.ips / mp.ips);
        }
    }
    return s;
}

struct Workload
{
    const char *name;
    Samples s;
    double bar = 0; ///< acceptance: median per-rep blockc/plain ratio

    double
    fusedSpeedup() const
    {
        return medianOf(s.fusedRatio);
    }

    double
    blockcSpeedup() const
    {
        return medianOf(s.blockcRatio);
    }

    /** The simulated outcome must not depend on either cache. */
    bool
    identical() const
    {
        const obs::Counters &p = s.plain.best.ctrs,
                            &f = s.fused.best.ctrs, &b = s.blockc.best.ctrs;
        return p.instructions == f.instructions && p.cycles == f.cycles &&
               p.instructions == b.instructions && p.cycles == b.cycles;
    }
};

void
workloadJson(JsonWriter &json, const Workload &w)
{
    const auto tier = [&](const char *name, const Result &r) {
        json.key(name)
            .beginObject()
            .field("ips_median", r.median())
            .field("ips_best", r.best.ips)
            .field("spread", r.spread())
            .end();
    };
    const obs::Counters &best = w.s.blockc.best.ctrs;
    json.beginObject().field("name", w.name);
    tier("plain", w.s.plain);
    tier("fused", w.s.fused);
    tier("blockc", w.s.blockc);
    json.field("speedup_fused", w.fusedSpeedup())
        .field("speedup_blockc", w.blockcSpeedup())
        .field("ratio_spread", spreadOf(w.s.blockcRatio))
        .field("bar", w.bar)
        .field("identical", w.identical())
        .field("instructions", best.instructions)
        .field("icache_hit_rate", best.icacheHitRate())
        .field("blockc_enters", best.blockc.enters)
        .field("blockc_chains", best.blockc.chains)
        .field("blockc_mean_run", best.blockc.meanRunLength())
        .field("blockc_compiles", best.blockc.compiles)
        .key("blockc_deopts")
        .beginObject();
    for (size_t d = 0; d < obs::kBlockDeopts; ++d)
        json.field(obs::kBlockDeoptNames[d], best.blockc.deopts[d]);
    json.end().end();
}

} // namespace

int
main()
{
    heading("execution tiers: instructions/second, "
            "plain vs fused vs block-compiled");

    const bool tier_usable = core::Transputer::blockBackendUsable();

    std::vector<Workload> loads;
    loads.push_back(
        {"e7_mips_loop", measure([](Tier t) { return runE7Once(t); }),
         3.5});
    loads.push_back({"dbsearch_4x4",
                     measure([](Tier t) { return runDbSearchOnce(t); }),
                     1.8});

    Table t({16, 13, 13, 13, 9, 9, 9, 10});
    t.row("workload", "plain i/s", "fused i/s", "blockc i/s",
          "fusedx", "blockx", "rspread", "identical");
    t.rule();
    bool all_identical = true;
    for (const auto &w : loads) {
        t.row(w.name, w.s.plain.median(), w.s.fused.median(),
              w.s.blockc.median(), w.fusedSpeedup(),
              w.blockcSpeedup(), spreadOf(w.s.blockcRatio),
              w.identical() ? "yes" : "NO");
        all_identical = all_identical && w.identical();
    }
    t.rule();

    // the pass bar is a median of per-rep ratios: best-of-N let one
    // lucky rep decide, and per-tier medians from separate batches
    // let one noise burst sink a single tier.  Only a real
    // regression -- the typical paired ratio below the bar -- fails.
    const double e7_fused = loads[0].fusedSpeedup();
    bool bars_met = e7_fused >= 2.0;
    for (const auto &w : loads) {
        const double s = w.blockcSpeedup();
        const bool met = !tier_usable || s >= w.bar;
        std::cout << w.name << ": blockc " << s << "x plain"
                  << " (bar " << w.bar << "x"
                  << (tier_usable ? "" : ", tier unavailable: waived")
                  << (met ? ", met" : ", MISSED") << "), ratio spread "
                  << spreadOf(w.s.blockcRatio) << "\n";
        bars_met = bars_met && met;
    }
    const bool pass = bars_met && all_identical;

    {
        std::ofstream out("BENCH_interp.json");
        JsonWriter json(out, 2);
        json.beginObject()
            .field("bench", "interp_fast_path")
            .field("e7_speedup", e7_fused)
            .field("pass_2x", e7_fused >= 2.0 && all_identical)
            .field("median_of", reps)
            .field("identical", all_identical)
            .key("workloads")
            .beginArray();
        for (const auto &w : loads) {
            const auto &f = w.s.fused;
            const obs::Counters &c = f.best.ctrs;
            json.beginObject()
                .field("name", w.name)
                .field("ips_on", f.median())
                .field("ips_off", w.s.plain.median())
                .field("speedup", w.fusedSpeedup())
                .field("spread_on", f.spread())
                .field("spread_off", w.s.plain.spread())
                .field("instructions", c.instructions)
                .field("icache_hits", c.icacheHits)
                .field("icache_misses", c.icacheMisses)
                .field("icache_hit_rate", c.icacheHitRate())
                .field("fused_runs", c.fused.runs)
                .field("fused_mean_run", c.fused.meanRunLength())
                .end();
        }
        json.end().end();
    }
    std::cout << "wrote BENCH_interp.json\n";

    {
        std::ofstream out("BENCH_blockc.json");
        JsonWriter json(out, 2);
        json.beginObject()
            .field("bench", "block_compiler_tier")
            .field("tier_usable", tier_usable)
            .field("median_of", reps)
            .field("pass", pass)
            .field("identical", all_identical)
            .key("workloads")
            .beginArray();
        for (const auto &w : loads)
            workloadJson(json, w);
        json.end().end();
    }
    std::cout << "wrote BENCH_blockc.json\n";

    return pass ? 0 : 1;
}
