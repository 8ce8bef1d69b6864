/**
 * @file
 * Fault-injection cost guard and reliable-transport goodput.
 *
 * Two questions, answered in one harness (results to stdout and
 * BENCH_fault.json):
 *
 *   1. What does the fault machinery cost when it is NOT in use?
 *      The CPU fast path never touches fault code, so the guard is
 *      the same acceptance bar PR 3 set: the e7 loop must still run
 *      >= 2x faster with the predecode cache on.  The link-level
 *      numbers (untapped link stream, and the same stream with
 *      watchdog timers armed) are reported for the record; arming a
 *      watchdog schedules a real timer event per transfer step, so
 *      its cost is a feature price, not idle overhead, and carries no
 *      bar.
 *
 *   2. What goodput does the occam ReliableChannel sustain as the
 *      injected byte-loss rate rises?  A two-node rig streams
 *      payload words through reliableSendBlock/reliableRecvBlock
 *      under symmetric data+ack loss.  The bar is correctness, not
 *      completion: every delivered prefix must be exact (in order,
 *      no duplicates, no corruption).  Under heavy loss the sender
 *      may declare the link dead after maxRetries -- that is the
 *      designed bounded-retry behaviour and is reported, not failed.
 */

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fault/reliable.hh"
#include "net/network.hh"
#include "net/occam_boot.hh"
#include "net/peripherals.hh"

#include "util.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int reps = 5; ///< take the best time of these

// ----- 1a. the e7 fast-path bar (identical shape to bench_interp) ----

double
e7Ips(bool predecode)
{
    double best = 0;
    for (int r = 0; r < reps; ++r) {
        core::Config cfg;
        cfg.predecode = predecode;
        AsmRig rig(cfg);
        const double t0 = cpuSeconds();
        rig.run(e7LoopSource(200'000));
        const double secs = cpuSeconds() - t0;
        const double ips =
            static_cast<double>(rig.cpu.instructions()) / secs;
        if (ips > best)
            best = ips;
    }
    return best;
}

// ----- 1b. idle link-machinery overhead ------------------------------

/** Host seconds to simulate a 4096-word link stream. */
double
linkStreamSeconds(bool watchdogs)
{
    constexpr int words = 4096;
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        net::Network net;
        core::Config cfg;
        cfg.onchipBytes = 8192;
        const int a = net.addTransputer(cfg);
        const int b = net.addTransputer(cfg);
        net.connect(a, net::dir::east, b, net::dir::west);
        if (watchdogs)
            net.setLinkWatchdogs(10'000'000); // armed, never fires
        net::bootOccamSource(
            net, a,
            "CHAN out:\nPLACE out AT LINK1OUT:\n"
            "SEQ i = [1 FOR " + std::to_string(words) + "]\n"
            "  out ! i\n");
        net::bootOccamSource(
            net, b,
            "CHAN in:\nPLACE in AT LINK3IN:\n"
            "VAR x:\n"
            "SEQ i = [1 FOR " + std::to_string(words) + "]\n"
            "  in ? x\n");
        const double t0 = cpuSeconds();
        net.run();
        const double secs = cpuSeconds() - t0;
        if (secs < best)
            best = secs;
    }
    return best;
}

// ----- 2. goodput vs injected loss -----------------------------------

struct GoodputPoint
{
    double loss;        ///< per-direction byte/ack loss probability
    int delivered;      ///< payload words that reached the console
    bool correct;       ///< delivered prefix is exact: in order, no
                        ///< dupes, no corruption
    bool completed;     ///< all words arrived (else: link declared
                        ///< dead after maxRetries -- by design)
    double simMs;       ///< simulated time to the last delivered byte
    double wordsPerMs;  ///< delivered / simMs
    uint64_t dropped;   ///< injected data-packet drops
    uint64_t aborts;    ///< watchdog-aborted transfers (retries)
};

GoodputPoint
measureGoodput(double loss)
{
    constexpr int words = 40;
    net::Network net;
    fault::FaultInjector injector;
    auto ids = net::buildPipeline(net, 2);
    net::ConsoleSink console(net.queue(), link::WireConfig{});
    net.attachPeripheral(ids[1], 0, console);
    net.setLinkWatchdogs(100'000);
    // generous retry budget: the backoff ceiling keeps each attempt
    // cheap, so heavy loss degrades goodput instead of giving up
    fault::ReliableConfig cfg;
    cfg.maxRetries = 64;

    std::string sender = "CHAN r.out, r.ack:\n"
                         "PLACE r.out AT LINK1OUT:\n"
                         "PLACE r.ack AT LINK1IN:\n"
                         "VAR sq, ok, i:\n"
                         "SEQ\n"
                         "  sq := 0\n"
                         "  ok := 1\n"
                         "  i := 0\n"
                         "  WHILE (i < " + std::to_string(words) +
                         ") AND (ok = 1)\n"
                         "    SEQ\n";
    sender += fault::reliableSendBlock(6, "r.out", "r.ack",
                                       "1000 + (i * 7)", "sq", "ok",
                                       cfg);
    sender += "      i := i + 1\n";

    std::string receiver = "CHAN r.in, r.bck, con:\n"
                           "PLACE r.in AT LINK3IN:\n"
                           "PLACE r.bck AT LINK3OUT:\n"
                           "PLACE con AT LINK0OUT:\n"
                           "VAR xp, v, i:\n"
                           "SEQ\n"
                           "  xp := 0\n"
                           "  i := 0\n"
                           "  WHILE i < " + std::to_string(words) +
                           "\n"
                           "    SEQ\n";
    receiver +=
        fault::reliableRecvBlock(6, "r.in", "r.bck", "v", "xp", cfg);
    receiver += "      con ! v\n"
                "      i := i + 1\n";

    net::bootOccamSource(net, ids[0], sender);
    net::bootOccamSource(net, ids[1], receiver);

    if (loss > 0) {
        fault::FaultPlan plan;
        plan.seed = 99;
        plan.line(0, 1).dataLoss = loss;
        plan.line(0, 1).ackLoss = loss;
        plan.line(1, 0).dataLoss = loss;
        plan.line(1, 0).ackLoss = loss;
        injector.arm(net, plan);
    }

    const Tick start = net.queue().now();
    Tick lastByte = start;
    console.onByte = [&](uint8_t) { lastByte = net.queue().now(); };
    net.run(start + 4'000'000'000); // 4 s budget

    GoodputPoint p;
    p.loss = loss;
    const std::vector<Word> got = console.words();
    p.delivered = static_cast<int>(got.size());
    p.completed = p.delivered == words;
    p.correct = true;
    for (int i = 0; i < p.delivered && p.correct; ++i)
        p.correct = got[static_cast<size_t>(i)] ==
                    static_cast<Word>(1000 + i * 7);
    p.simMs = static_cast<double>(lastByte - start) / 1e6;
    p.wordsPerMs = p.simMs > 0 ? p.delivered / p.simMs : 0.0;
    p.dropped = injector.stats().dataDropped;
    p.aborts = 0;
    net.forEachEngine([&](link::LinkEngine &e) {
        p.aborts += e.outAborts() + e.inAborts();
    });
    return p;
}

} // namespace

int
main()
{
    heading("fault machinery: cost when idle, goodput under loss");

    // -- 1a: the e7 fast-path bar (PR 3 acceptance must still hold)
    const double on = e7Ips(true), off = e7Ips(false);
    const double e7_speedup = on / off;
    const bool pass_e7 = e7_speedup >= 2.0;
    std::cout << "e7 loop: " << on / 1e6 << " M instr/s (cache on), "
              << "speedup " << e7_speedup
              << " (bar: >= 2x, as before the fault layer)\n";

    // -- 1b: link stream bare vs watchdog timers armed (for the
    //        record; an armed watchdog schedules a real timer event
    //        per transfer step, so this is a feature price, no bar)
    const double wd_off = linkStreamSeconds(false);
    const double wd_on = linkStreamSeconds(true);
    const double armed_pct = 100.0 * (wd_on / wd_off - 1.0);
    std::cout << "link stream: " << wd_off * 1e3 << " ms host (bare), "
              << wd_on * 1e3 << " ms (watchdogs armed): +"
              << armed_pct << "% (feature price, informational)\n\n";

    // -- 2: goodput vs loss
    const double losses[] = {0.0, 0.01, 0.02, 0.05, 0.10};
    std::vector<GoodputPoint> points;
    Table t({10, 11, 9, 9, 10, 12, 9, 9});
    t.row("loss (%)", "delivered", "exact", "done", "sim (ms)",
          "words/ms", "drops", "aborts");
    t.rule();
    bool all_correct = true;
    for (const double loss : losses) {
        points.push_back(measureGoodput(loss));
        const auto &p = points.back();
        t.row(100.0 * p.loss, p.delivered, p.correct ? "yes" : "NO",
              p.completed ? "yes" : "gave up", p.simMs, p.wordsPerMs,
              p.dropped, p.aborts);
        all_correct = all_correct && p.correct;
    }
    t.rule();

    const bool pass = pass_e7 && all_correct;
    std::cout << "\nevery delivered prefix exact: "
              << (all_correct ? "yes" : "NO") << "\n";

    std::ofstream out("BENCH_fault.json");
    JsonWriter json(out, 2);
    json.beginObject()
        .field("bench", "fault_overhead_and_goodput")
        .field("e7_ips_on", on)
        .field("e7_speedup", e7_speedup)
        .field("pass_e7_bar_2x", pass_e7)
        .field("link_stream_host_ms_bare", wd_off * 1e3)
        .field("link_stream_host_ms_watchdogs", wd_on * 1e3)
        .field("watchdog_feature_price_pct", armed_pct)
        .field("all_exact", all_correct)
        .key("goodput")
        .beginArray();
    for (const auto &p : points)
        json.beginObject()
            .field("loss", p.loss)
            .field("delivered", p.delivered)
            .field("exact", p.correct)
            .field("completed", p.completed)
            .field("sim_ms", p.simMs)
            .field("words_per_ms", p.wordsPerMs)
            .field("data_drops", p.dropped)
            .field("link_aborts", p.aborts)
            .end();
    json.end().end();
    std::cout << "wrote BENCH_fault.json\n";
    return pass ? 0 : 1;
}
