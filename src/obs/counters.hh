/**
 * @file
 * Per-transputer performance counters (see DESIGN.md "Observability").
 *
 * A Counters value is a plain snapshot: Transputer::counters() fills
 * one from the live core, Network::counters() adds the link-engine
 * byte totals, and operator+= folds node snapshots into network
 * aggregates.
 *
 * Every field is named once, in the kCounterRows table, with a class:
 * `arch` rows are functions of the executed instruction stream alone
 * and so bit-identical between serial and shard-parallel runs
 * (tests/test_obs.cc); `cache` rows are the predecode cache's
 * statistics, architectural too but re-counted after a snapshot
 * restore; `host` rows (the fused and blockc blocks) measure the host
 * interpreter tiers, which legitimately vary with event batching and
 * window horizons.  The table drives operator+=, sameArchitectural()
 * (arch and cache rows), countersJson() and the snapshot visitor
 * (src/snap, whose ignoreCacheStats skips the cache and host rows); a
 * static_assert fails the build when a field has no row.
 *
 * The counters themselves are always compiled in: each is a single
 * unconditional increment on an already-memory-touching path, which
 * keeps bench_interp's tier ratios above their bars without a
 * compile-time gate.
 */

#ifndef TRANSPUTER_OBS_COUNTERS_HH
#define TRANSPUTER_OBS_COUNTERS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/json.hh"
#include "base/types.hh"
#include "isa/opcodes.hh"

namespace transputer::obs
{

/** Slots for the indirect-operation histogram (Op codes are dense). */
constexpr size_t kOpSlots = static_cast<size_t>(isa::Op::DUP) + 1;

/** Host-side interpreter statistics (not architectural). */
struct FusedStats
{
    uint64_t runs = 0;         ///< entries into the fused inner loop
    uint64_t instructions = 0; ///< instructions those entries inlined
    uint64_t cycles = 0;       ///< simulated cycles retired in the loop
    /** Histogram of run lengths: bucket i counts runs of length n
     *  with bit_width(n) == i (bucket 0: runs that inlined nothing). */
    std::array<uint64_t, 17> lenLog2{};

    double
    meanRunLength() const
    {
        return runs ? static_cast<double>(instructions) /
                          static_cast<double>(runs)
                    : 0.0;
    }
};

/**
 * Why a superblock execution handed control back to the interpreter
 * (core/blockc.hh's Deopt enum mirrors this order; a static_assert
 * there keeps the two in lock step).
 */
constexpr size_t kBlockDeopts = 8;

/** Names for the deopt histogram slots, in enum order. */
constexpr const char *kBlockDeoptNames[kBlockDeopts] = {
    "bound",      ///< local time reached the event/horizon bound
    "budget",     ///< per-dispatch instruction budget exhausted
    "guard",      ///< code bytes changed (self-modifying store / DMA)
    "deschedule", ///< timeslice rotation or deschedule left the block
    "halt",       ///< error flag with halt-on-error set
    "branch",     ///< dynamic branch left the compiled region
    "end",        ///< ran off the compiled tail (next chain not fast)
    "entry",      ///< stale at entry: invalidated before executing
};

/** Block-compiler tier statistics (host-side, not architectural). */
struct BlockStats
{
    uint64_t compiles = 0;      ///< superblocks compiled
    uint64_t steps = 0;         ///< superop steps those compiles emitted
    uint64_t invalidations = 0; ///< superblocks demoted (stale guards)
    uint64_t enters = 0;        ///< superblock executions started
    uint64_t chains = 0;        ///< predecoded chains retired in blocks
    uint64_t instructions = 0;  ///< instruction bytes those chains held
    uint64_t cycles = 0;        ///< simulated cycles retired in blocks
    std::array<uint64_t, kBlockDeopts> deopts{};

    double
    meanRunLength() const
    {
        return enters ? static_cast<double>(chains) /
                            static_cast<double>(enters)
                      : 0.0;
    }
};

/** One snapshot of a transputer's (or a whole network's) counters. */
struct Counters
{
    // instruction mix
    std::array<uint64_t, 16> fn{};     ///< per direct function
    std::array<uint64_t, kOpSlots> op{}; ///< per indirect operation
    uint64_t instructions = 0;
    uint64_t cycles = 0;

    // predecoded instruction cache
    uint64_t icacheHits = 0;
    uint64_t icacheMisses = 0;
    uint64_t icacheInvalidations = 0; ///< refills of a stale tag hit

    // scheduler
    uint64_t processStarts = 0;      ///< processes made ready (runp)
    uint64_t timeslices = 0;         ///< low-priority rotations
    uint64_t priorityInterrupts = 0; ///< low -> high preemptions

    // channels (counted at the in/out instruction, per endpoint)
    uint64_t chanInternalIn = 0;
    uint64_t chanInternalOut = 0;
    uint64_t chanLinkIn = 0;
    uint64_t chanLinkOut = 0;

    // timers
    uint64_t timerWaits = 0; ///< processes queued on a timer list
    uint64_t timerWakes = 0; ///< processes woken by timer expiry

    /** Ticks spent with no runnable process (accounted at wake). */
    Tick idleTicks = 0;

    // link traffic (filled by Network::counters from the engines)
    uint64_t linkBytesOut = 0;
    uint64_t linkBytesIn = 0;

    // fault injection and link health (src/fault; filled by
    // Network::nodeCounters from this node's lines and engines).
    // Injected faults are drawn in transmit order from seeded
    // per-line PRNGs and watchdog deadlines are architectural, so all
    // of these are serial/parallel bit-identical too.
    uint64_t faultDataDrops = 0;  ///< injected data-packet losses
    uint64_t faultAckDrops = 0;   ///< injected ack-packet losses
    uint64_t faultCorrupts = 0;   ///< injected data corruptions
    Tick faultJitterTicks = 0;    ///< injected extra wire latency
    uint64_t linkOutAborts = 0;   ///< outputs abandoned by watchdog
    uint64_t linkInAborts = 0;    ///< inputs abandoned by watchdog
    uint64_t linkStaleAcks = 0;   ///< acks for abandoned outputs
    uint64_t linkOverrunDrops = 0; ///< bytes dropped on a full buffer
    uint64_t linkDeadDrops = 0;   ///< bytes that arrived at a dead node

    // virtual-channel routing fabric (src/route; filled by
    // route::Fabric::nodeCounters from this node's switch).  Switch
    // state changes only inside keyed delivery/timer events and all
    // retry/backoff arithmetic is integer, so these are
    // serial/parallel bit-identical like the fault block above.
    uint64_t routeForwards = 0;      ///< packets relayed port-to-port
    uint64_t routeDelivered = 0;     ///< fresh payloads handed to a host
    uint64_t routeHops = 0;          ///< hops summed over delivered packets
    uint64_t routeReroutes = 0;      ///< forwards off the first-choice port
    uint64_t routeRetransmits = 0;   ///< end-to-end ARQ retransmissions
    uint64_t routeHopRetransmits = 0; ///< per-trunk hop ARQ retransmissions
    uint64_t routeHopDrops = 0;      ///< packets a trunk gave up on
    uint64_t routeLinkFloods = 0;    ///< link-down notices originated/relayed
    uint64_t routeDupDrops = 0;      ///< duplicate deliveries suppressed
    uint64_t routeMalformed = 0;     ///< bytes rejected by the decoder
    uint64_t routeCongestionDrops = 0; ///< packets dropped on a full port
    uint64_t routeTtlDrops = 0;      ///< packets past the hop limit
    uint64_t routeUndeliverable = 0; ///< sends declared undeliverable

    // host-side interpreter statistics (excluded from arch equality)
    FusedStats fused;
    BlockStats blockc;

    uint64_t
    icacheLookups() const
    {
        return icacheHits + icacheMisses;
    }

    double
    icacheHitRate() const
    {
        const uint64_t n = icacheLookups();
        return n ? static_cast<double>(icacheHits) /
                       static_cast<double>(n)
                 : 0.0;
    }

    /** Row-wise sum (every kCounterRows row, host rows too). */
    Counters &operator+=(const Counters &o);
};

/** What a counter row measures, and so which comparisons see it. */
enum class CounterClass : uint8_t
{
    arch,  ///< a function of the executed instruction stream alone
    cache, ///< predecode-cache statistics: architectural between runs
           ///< of one cache setting, re-counted after a restore
    host,  ///< host interpreter tiers: varies with event batching
};

/**
 * One row of the counter table: a Counters field named once.  Every
 * field is a run of `width` uint64_t-sized slots (a scalar, or an
 * array); the table drives +=, sameArchitectural, countersJson and
 * the snapshot visitor, so adding a counter is one row below.
 */
struct CounterRow
{
    const char *name;   ///< JSON key (snapshot field "ctrs.<name>")
    CounterClass cls;
    size_t offset;      ///< byte offset of the first slot in Counters
    size_t width;       ///< slots: 1 for a scalar, else array length
    /** Array rows: JSON object key of slot i (null: a JSON array). */
    std::string_view (*label)(size_t) = nullptr;
    bool sparse = false; ///< JSON omits the zero slots
};

#define TRANSPUTER_COUNTER(key, member, cls, ...)                          \
    CounterRow                                                             \
    {                                                                      \
        key, CounterClass::cls, offsetof(Counters, member),                \
            sizeof(Counters::member) / sizeof(uint64_t), __VA_ARGS__       \
    }

/** The counter table, in Counters declaration order. */
inline constexpr CounterRow kCounterRows[] = {
    TRANSPUTER_COUNTER("fn", fn, arch,
                       [](size_t i) { return isa::fnName(isa::Fn(i)); },
                       true),
    TRANSPUTER_COUNTER("op", op, arch,
                       [](size_t i) { return isa::opName(isa::Op(i)); },
                       true),
    TRANSPUTER_COUNTER("instructions", instructions, arch),
    TRANSPUTER_COUNTER("cycles", cycles, arch),
    TRANSPUTER_COUNTER("icache_hits", icacheHits, cache),
    TRANSPUTER_COUNTER("icache_misses", icacheMisses, cache),
    TRANSPUTER_COUNTER("icache_invalidations", icacheInvalidations, cache),
    TRANSPUTER_COUNTER("process_starts", processStarts, arch),
    TRANSPUTER_COUNTER("timeslices", timeslices, arch),
    TRANSPUTER_COUNTER("priority_interrupts", priorityInterrupts, arch),
    TRANSPUTER_COUNTER("chan_internal_in", chanInternalIn, arch),
    TRANSPUTER_COUNTER("chan_internal_out", chanInternalOut, arch),
    TRANSPUTER_COUNTER("chan_link_in", chanLinkIn, arch),
    TRANSPUTER_COUNTER("chan_link_out", chanLinkOut, arch),
    TRANSPUTER_COUNTER("timer_waits", timerWaits, arch),
    TRANSPUTER_COUNTER("timer_wakes", timerWakes, arch),
    TRANSPUTER_COUNTER("idle_ns", idleTicks, arch),
    TRANSPUTER_COUNTER("link_bytes_out", linkBytesOut, arch),
    TRANSPUTER_COUNTER("link_bytes_in", linkBytesIn, arch),
    TRANSPUTER_COUNTER("fault_data_drops", faultDataDrops, arch),
    TRANSPUTER_COUNTER("fault_ack_drops", faultAckDrops, arch),
    TRANSPUTER_COUNTER("fault_corrupts", faultCorrupts, arch),
    TRANSPUTER_COUNTER("fault_jitter_ns", faultJitterTicks, arch),
    TRANSPUTER_COUNTER("link_out_aborts", linkOutAborts, arch),
    TRANSPUTER_COUNTER("link_in_aborts", linkInAborts, arch),
    TRANSPUTER_COUNTER("link_stale_acks", linkStaleAcks, arch),
    TRANSPUTER_COUNTER("link_overrun_drops", linkOverrunDrops, arch),
    TRANSPUTER_COUNTER("link_dead_drops", linkDeadDrops, arch),
    TRANSPUTER_COUNTER("route_forwards", routeForwards, arch),
    TRANSPUTER_COUNTER("route_delivered", routeDelivered, arch),
    TRANSPUTER_COUNTER("route_hops", routeHops, arch),
    TRANSPUTER_COUNTER("route_reroutes", routeReroutes, arch),
    TRANSPUTER_COUNTER("route_retransmits", routeRetransmits, arch),
    TRANSPUTER_COUNTER("route_hop_retransmits", routeHopRetransmits, arch),
    TRANSPUTER_COUNTER("route_hop_drops", routeHopDrops, arch),
    TRANSPUTER_COUNTER("route_link_floods", routeLinkFloods, arch),
    TRANSPUTER_COUNTER("route_dup_drops", routeDupDrops, arch),
    TRANSPUTER_COUNTER("route_malformed", routeMalformed, arch),
    TRANSPUTER_COUNTER("route_congestion_drops", routeCongestionDrops,
                       arch),
    TRANSPUTER_COUNTER("route_ttl_drops", routeTtlDrops, arch),
    TRANSPUTER_COUNTER("route_undeliverable", routeUndeliverable, arch),
    TRANSPUTER_COUNTER("fused_runs", fused.runs, host),
    TRANSPUTER_COUNTER("fused_instructions", fused.instructions, host),
    TRANSPUTER_COUNTER("fused_cycles", fused.cycles, host),
    TRANSPUTER_COUNTER("fused_len_log2", fused.lenLog2, host),
    TRANSPUTER_COUNTER("blockc_compiles", blockc.compiles, host),
    TRANSPUTER_COUNTER("blockc_steps", blockc.steps, host),
    TRANSPUTER_COUNTER("blockc_invalidations", blockc.invalidations, host),
    TRANSPUTER_COUNTER("blockc_enters", blockc.enters, host),
    TRANSPUTER_COUNTER("blockc_chains", blockc.chains, host),
    TRANSPUTER_COUNTER("blockc_instructions", blockc.instructions, host),
    TRANSPUTER_COUNTER("blockc_cycles", blockc.cycles, host),
    TRANSPUTER_COUNTER("blockc_deopts", blockc.deopts, host,
                       [](size_t i) {
                           return std::string_view(kBlockDeoptNames[i]);
                       }),
};

#undef TRANSPUTER_COUNTER

/** True when the rows cover Counters exactly: each starts where the
 *  previous one ended and the last ends at sizeof(Counters). */
constexpr bool
counterRowsTileCounters()
{
    size_t at = 0;
    for (const CounterRow &r : kCounterRows) {
        if (r.offset != at)
            return false;
        at += r.width * sizeof(uint64_t);
    }
    return at == sizeof(Counters);
}

static_assert(counterRowsTileCounters(),
              "every obs::Counters field needs exactly one kCounterRows "
              "row, in declaration order");

/** The slots of one row. */
inline uint64_t *
counterSlots(Counters &c, const CounterRow &r)
{
    return reinterpret_cast<uint64_t *>(reinterpret_cast<char *>(&c) +
                                        r.offset);
}

inline const uint64_t *
counterSlots(const Counters &c, const CounterRow &r)
{
    return reinterpret_cast<const uint64_t *>(
        reinterpret_cast<const char *>(&c) + r.offset);
}

inline Counters &
Counters::operator+=(const Counters &o)
{
    for (const CounterRow &r : kCounterRows) {
        uint64_t *dst = counterSlots(*this, r);
        const uint64_t *src = counterSlots(o, r);
        for (size_t i = 0; i < r.width; ++i)
            dst[i] += src[i];
    }
    return *this;
}

/**
 * Equality over the arch and cache rows: everything except the host
 * rows (`fused` and `blockc`), which depend on host-side batching
 * (the parallel engine's window horizon clips fused runs and
 * superblock executions differently than a serial run).
 */
inline bool
sameArchitectural(const Counters &a, const Counters &b)
{
    for (const CounterRow &r : kCounterRows) {
        const uint64_t *x = counterSlots(a, r);
        if (r.cls != CounterClass::host &&
            !std::equal(x, x + r.width, counterSlots(b, r)))
            return false;
    }
    return true;
}

/**
 * Write a Counters snapshot as one JSON object: a member per row
 * (the labelled histograms as objects, fn/op with only their non-zero
 * entries), then the derived icache_hit_rate and fused_mean_run.
 */
inline void
countersJson(JsonWriter &w, const Counters &c)
{
    w.beginObject();
    for (const CounterRow &r : kCounterRows) {
        const uint64_t *v = counterSlots(c, r);
        w.key(r.name);
        if (r.width == 1) {
            w.value(v[0]);
            continue;
        }
        r.label ? w.beginObject() : w.beginArray();
        for (size_t i = 0; i < r.width; ++i) {
            if (!r.label)
                w.value(v[i]);
            else if (v[i] || !r.sparse)
                w.field(r.label(i), v[i]);
        }
        w.end();
    }
    w.field("icache_hit_rate", c.icacheHitRate());
    w.field("fused_mean_run", c.fused.meanRunLength());
    w.end();
}

/** countersJson as a one-line string. */
inline std::string
countersJson(const Counters &c)
{
    JsonWriter w;
    countersJson(w, c);
    return w.str();
}

} // namespace transputer::obs

#endif // TRANSPUTER_OBS_COUNTERS_HH
