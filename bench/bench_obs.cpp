/**
 * @file
 * Observability overhead on the E7 MIPS loop (see DESIGN.md
 * "Second-generation observability"): how much host throughput the
 * sampling profiler, the metrics time-series and the always-on flight
 * recorder cost, each measured against a fully-disabled baseline.
 *
 * The disabled paths are designed to be ~free -- in the interpreter
 * the profiler and time-series reduce to one threshold compare each
 * per chain against a never-reached sentinel (in the block tier the
 * thresholds fold into the existing bound check, costing nothing),
 * and the flight recorder to a null-pointer test per scheduler
 * event -- so the acceptance bars are
 *
 *   - everything off vs seed-style run: indistinguishable (the
 *     baseline itself, reported for reference);
 *   - flight recorder on (the shipping default): <= 2% overhead;
 *   - profiler on at the default 4096-cycle interval: <= 5%;
 *   - time-series on at the default tick: <= 5%.
 *
 * Expected overheads are within host noise, so pass/fail compares
 * BEST-OF throughput: host noise is one-sided (steal, frequency
 * ramps, cache pollution only ever slow a run), so the fastest of N
 * repetitions is the robust estimator of true throughput and the
 * best-of ratio isolates the real cost where a median of 25%-spread
 * samples cannot resolve a 2% bar.  The per-repetition paired-ratio
 * median (the bench_interp idiom) is still reported in the artifact
 * for transparency.  Results go to stdout plus BENCH_obs.json.
 */

#include <fstream>
#include <string>
#include <vector>

#include "core/transputer.hh"

#include "util.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int warmup = 2;
constexpr int reps = 9;

/** The observability variants under comparison. */
struct Variant
{
    const char *name;
    bool flight;
    bool profile;
    bool timeseries;
    double bar; ///< max tolerated median overhead (ratio - 1)
};

constexpr Variant kVariants[] = {
    {"baseline", false, false, false, 0.0}, // reference, no bar
    {"flight", true, false, false, 0.02},
    {"profile", true, true, false, 0.05},
    {"timeseries", true, false, true, 0.05},
};
constexpr size_t kNumVariants =
    sizeof(kVariants) / sizeof(kVariants[0]);

struct Measure
{
    double ips = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t samples = 0;
    uint64_t tsPoints = 0;
};

Measure
runOnce(const Variant &v)
{
    core::Config cfg;
    cfg.flight = v.flight;
    cfg.profile = v.profile;     // default 4096-cycle interval
    cfg.timeseries = v.timeseries; // default 1 ms tick
    AsmRig rig(cfg);
    const double t0 = cpuSeconds();
    rig.run(e7LoopSource(1'000'000));
    const double secs = cpuSeconds() - t0;
    Measure m;
    m.instructions = rig.cpu.counters().instructions;
    m.cycles = rig.cpu.counters().cycles;
    m.ips = static_cast<double>(m.instructions) / secs;
    if (const obs::Profiler *p = rig.cpu.profiler())
        m.samples = p->totalSamples();
    if (const obs::TimeSeries *ts = rig.cpu.timeSeries())
        m.tsPoints = ts->total();
    return m;
}

} // namespace

int
main()
{
    heading("observability overhead: sampling profiler, time-series, "
            "flight recorder on the E7 loop");

    // per rep: run every variant back to back, ratio against that
    // rep's own baseline
    std::vector<double> ips[kNumVariants];
    std::vector<double> overhead[kNumVariants]; // ratio - 1 vs baseline
    Measure best[kNumVariants];
    uint64_t baseInstr = 0, baseCycles = 0;
    bool identical = true;
    for (int r = -warmup; r < reps; ++r) {
        Measure m[kNumVariants];
        // rotate the execution order per rep: slow host phases
        // (frequency ramps, steal bursts) would otherwise always hit
        // the same variant's slot in the group
        for (size_t i = 0; i < kNumVariants; ++i) {
            const size_t v =
                (static_cast<size_t>(r + warmup) + i) % kNumVariants;
            m[v] = runOnce(kVariants[v]);
        }
        if (r < 0)
            continue;
        if (baseInstr == 0) {
            baseInstr = m[0].instructions;
            baseCycles = m[0].cycles;
        }
        for (size_t v = 0; v < kNumVariants; ++v) {
            ips[v].push_back(m[v].ips);
            if (m[v].ips > best[v].ips)
                best[v] = m[v];
            if (m[v].ips > 0)
                overhead[v].push_back(m[0].ips / m[v].ips - 1.0);
            // observation must never change the simulated outcome
            identical = identical &&
                        m[v].instructions == baseInstr &&
                        m[v].cycles == baseCycles;
        }
    }

    Table t({12, 13, 13, 11, 11, 10, 11});
    t.row("variant", "i/s best", "i/s median", "overhead", "bar",
          "samples", "ts points");
    t.rule();
    bool pass = identical;
    double med[kNumVariants], over[kNumVariants];
    for (size_t v = 0; v < kNumVariants; ++v) {
        med[v] = medianOf(overhead[v]);
        over[v] = best[v].ips > 0
                      ? best[0].ips / best[v].ips - 1.0
                      : 0.0;
        const bool met = v == 0 || over[v] <= kVariants[v].bar;
        t.row(kVariants[v].name, best[v].ips, medianOf(ips[v]),
              v == 0 ? std::string("--")
                     : std::to_string(over[v] * 100.0) + "%",
              v == 0 ? std::string("--")
                     : std::to_string(kVariants[v].bar * 100.0) + "%",
              best[v].samples, best[v].tsPoints);
        pass = pass && met;
    }
    t.rule();
    std::cout << (identical ? ""
                            : "simulated outcome DIFFERS across "
                              "variants\n")
              << (pass ? "all bars met\n" : "bars MISSED\n");

    std::ofstream out("BENCH_obs.json");
    JsonWriter json(out, 2);
    json.beginObject()
        .field("bench", "obs_overhead")
        .field("workload", "e7_mips_loop")
        .field("median_of", reps)
        .field("pass", pass)
        .field("identical", identical)
        .key("variants")
        .beginArray();
    for (size_t v = 0; v < kNumVariants; ++v)
        json.beginObject()
            .field("name", kVariants[v].name)
            .field("ips_best", best[v].ips)
            .field("ips_median", medianOf(ips[v]))
            .field("ips_spread", spreadOf(ips[v]))
            .field("overhead_best", v == 0 ? 0.0 : over[v])
            .field("overhead_median", v == 0 ? 0.0 : med[v])
            .field("bar", kVariants[v].bar)
            .field("samples", best[v].samples)
            .field("ts_points", best[v].tsPoints)
            .field("instructions", best[v].instructions)
            .end();
    json.end().end();
    std::cout << "wrote BENCH_obs.json\n";
    return pass ? 0 : 1;
}
