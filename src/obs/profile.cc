#include "obs/profile.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "base/json.hh"
#include "net/network.hh"
#include "obs/timeseries.hh"

namespace transputer::obs
{

namespace
{

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Process frame for folded stacks: W#<wptr>.<hi|lo> (no spaces or
 *  semicolons -- both are separators in the folded format). */
std::string
wdescFrame(uint64_t wdesc)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "W#%06llx.%s",
                  static_cast<unsigned long long>(wdesc & ~1ull),
                  (wdesc & 1) ? "lo" : "hi");
    return buf;
}

} // namespace

std::string
foldedProfile(net::Network &net)
{
    std::ostringstream os;
    for (size_t i = 0; i < net.size(); ++i)
    {
        auto &node = net.node(static_cast<int>(i));
        const Profiler *prof = node.profiler();
        if (!prof)
            continue;
        for (const auto &kv : prof->cells())
            os << node.name() << ";" << wdescFrame(kv.first.first)
               << ";" << hex(kv.first.second) << " "
               << kv.second.samples << "\n";
    }
    return os.str();
}

std::string
profileJson(net::Network &net, bool hostTiers)
{
    JsonWriter w(4);
    w.beginObject().key("nodes").beginArray();
    for (size_t i = 0; i < net.size(); ++i) {
        auto &node = net.node(static_cast<int>(i));
        const Profiler *prof = node.profiler();
        w.beginObject()
            .field("name", node.name())
            .field("interval_cycles", prof ? prof->interval() : 0)
            .field("total_samples", prof ? prof->totalSamples() : 0)
            .key("cells")
            .beginArray();
        if (prof) {
            for (const auto &kv : prof->cells()) {
                w.beginObject()
                    .field("wdesc", hex(kv.first.first))
                    .field("pri", kv.first.first & 1)
                    .field("iptr", hex(kv.first.second))
                    .field("samples", kv.second.samples);
                if (hostTiers)
                    w.key("tier")
                        .beginObject()
                        .field("plain", kv.second.tier[kTierPlain])
                        .field("fused", kv.second.tier[kTierFused])
                        .field("blockc", kv.second.tier[kTierBlock])
                        .end();
                w.end();
            }
        }
        w.end().end();
    }
    w.end();
    return w.str();
}

std::string
timeseriesJson(net::Network &net, bool archOnly)
{
    // collect each node's points (ring + a final live point captured
    // now, so the deltas sum exactly to the final counters)
    std::vector<std::vector<TsPoint>> series(net.size());
    for (size_t i = 0; i < net.size(); ++i) {
        auto &node = net.node(static_cast<int>(i));
        const TimeSeries *ts = node.timeSeries();
        if (!ts)
            continue;
        auto &pts = series[i];
        ts->forEach([&](const TsPoint &p) { pts.push_back(p); });
        pts.push_back(node.tsCapture(node.localTime()));
    }

    const auto rate = [](uint64_t num, uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    JsonWriter w(4);
    w.beginObject().key("nodes").beginArray();
    for (size_t i = 0; i < net.size(); ++i) {
        auto &node = net.node(static_cast<int>(i));
        const TimeSeries *ts = node.timeSeries();
        w.beginObject()
            .field("name", node.name())
            .field("interval_ns", ts ? ts->interval() : 0)
            .field("dropped", ts ? ts->dropped() : 0)
            .key("points")
            .beginArray();
        TsPoint prev; // zero: the first delta is since boot
        for (const TsPoint &p : series[i]) {
            const uint64_t dh = p.icacheHits - prev.icacheHits;
            const uint64_t dm = p.icacheMisses - prev.icacheMisses;
            w.beginObject()
                .field("tick", p.tick)
                .field("d_instructions",
                       p.instructions - prev.instructions)
                .field("d_cycles", p.cycles - prev.cycles)
                .field("d_icache_hits", dh)
                .field("d_icache_misses", dm)
                .field("icache_hit_rate", rate(dh, dh + dm))
                .field("d_link_bytes_out",
                       p.linkBytesOut - prev.linkBytesOut)
                .field("d_link_bytes_in", p.linkBytesIn - prev.linkBytesIn)
                .field("d_process_starts",
                       p.processStarts - prev.processStarts)
                .field("d_timeslices", p.timeslices - prev.timeslices)
                .field("d_idle_ns", p.idleTicks - prev.idleTicks)
                .field("q_lo", p.qlo)
                .field("q_hi", p.qhi);
            if (!archOnly) {
                const uint64_t dc = p.blockChains - prev.blockChains;
                const uint64_t dd = p.blockDeopts - prev.blockDeopts;
                w.field("d_block_chains", dc)
                    .field("d_block_deopts", dd)
                    .field("deopt_rate", rate(dd, dc));
            }
            w.end();
            prev = p;
        }
        w.end().end();
    }
    w.end();

    // shard-imbalance series: at every nominal tick all nodes have a
    // point for, max/mean of the per-node cycle deltas over the
    // preceding common interval.  1.0 is perfectly balanced; nodes/
    // shards are contiguous, so node imbalance bounds shard imbalance.
    std::vector<std::map<Tick, uint64_t>> cyclesAt(net.size());
    std::set<Tick> common;
    bool haveAll = !series.empty();
    for (size_t i = 0; i < series.size(); ++i) {
        if (series[i].empty()) {
            haveAll = false;
            break;
        }
        std::set<Tick> ticks;
        for (const TsPoint &p : series[i]) {
            cyclesAt[i][p.tick] = p.cycles;
            ticks.insert(p.tick);
        }
        if (i == 0)
            common = ticks;
        else {
            std::set<Tick> inter;
            std::set_intersection(common.begin(), common.end(),
                                  ticks.begin(), ticks.end(),
                                  std::inserter(inter, inter.begin()));
            common = inter;
        }
    }
    w.key("imbalance").beginArray();
    if (haveAll && common.size() >= 2) {
        Tick prevTick = *common.begin();
        for (auto it = std::next(common.begin()); it != common.end();
             ++it) {
            uint64_t maxd = 0, sum = 0;
            for (size_t i = 0; i < net.size(); ++i) {
                const uint64_t d =
                    cyclesAt[i][*it] - cyclesAt[i][prevTick];
                maxd = std::max(maxd, d);
                sum += d;
            }
            const double mean = static_cast<double>(sum) /
                                static_cast<double>(net.size());
            w.beginObject()
                .field("tick", *it)
                .field("cycle_imbalance",
                       mean > 0.0 ? static_cast<double>(maxd) / mean
                                  : 0.0)
                .end();
            prevTick = *it;
        }
    }
    w.end().end();
    return w.str();
}

} // namespace transputer::obs
