#include "workloads.hh"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "apps/dbsearch.hh"
#include "apps/flood.hh"
#include "apps/routedquery.hh"
#include "fault/fault.hh"
#include "kernels.hh"
#include "obs/counters.hh"
#include "par/parallel_engine.hh"
#include "route/fabric.hh"
#include "tasm/assembler.hh"

using namespace transputer;

namespace perfbench
{

// ---------------------------------------------------------------- e7

namespace
{

/** The section 3.2.1 mix: six copies of nine single-cycle
 *  instructions, then a counted loop on local 30. */
std::string
e7Source(uint64_t n)
{
    std::string body;
    for (int r = 0; r < 6; ++r)
        body += "  ldc 5\n stl 1\n adc 3\n stl 2\n ldc 9\n"
                "  adc 1\n stl 3\n ldlp 4\n stl 4\n";
    return "start:\n  ldc " + std::to_string(n) + "\n stl 30\nouter:\n" +
           body +
           "  ldl 30\n adc -1\n stl 30\n  ldl 30\n cj done\nback:\n"
           "  j outer\ndone:\n  stopp\nend:\n";
}

std::vector<uint8_t>
slice(const tasm::Image &img, const std::string &from,
      const std::string &to)
{
    const auto b = img.bytes.begin();
    return {b + (img.symbol(from) - img.origin),
            b + (img.symbol(to) - img.origin)};
}

} // namespace

E7Rig::E7Rig(const core::Config &cfg, uint64_t n)
{
    const int node = net.addTransputer(cfg);
    auto &t = net.node(node);
    const tasm::Image img =
        tasm::assemble(e7Source(n), t.memory().memStart(), t.shape());
    expect = e7ClosedForm(slice(img, "start", "outer"),
                          slice(img, "outer", "back"),
                          slice(img, "back", "done"),
                          slice(img, "done", "end"), n);
    net.bootImage(node, img);
}

void
E7Rig::run()
{
    // the timers keep the queue busy after stopp, so stop at the CPU
    auto &q = net.queue();
    const auto &cpu = net.node(0);
    while (cpu.state() == core::CpuState::Running && q.runOne()) {
    }
}

namespace
{

constexpr int kMinRounds = 3;

/** Counter movement over some rounds, for the per-layer metrics. */
struct Tally
{
    uint64_t events = 0;
    uint64_t instructions = 0;
    uint64_t linkBytes = 0;
    uint64_t fusedRuns = 0;
    uint64_t fusedInstructions = 0;
    uint64_t blockcInstructions = 0;
    uint64_t icacheHits = 0;
    uint64_t icacheMisses = 0;
    uint64_t forwards = 0;
    uint64_t retransmits = 0;
    uint64_t hopRetransmits = 0;
    uint64_t delivered = 0;
    uint64_t faultDrops = 0;
    uint64_t parRounds = 0;
    uint64_t parBarriers = 0;
    uint64_t parStalls = 0;
    std::vector<uint64_t> shardEvents;

    /** Add what happened between counter snapshots b and a. */
    void
    add(const obs::Counters &a, const obs::Counters &b)
    {
        instructions += a.instructions - b.instructions;
        linkBytes += a.linkBytesOut - b.linkBytesOut;
        fusedRuns += a.fused.runs - b.fused.runs;
        fusedInstructions += a.fused.instructions - b.fused.instructions;
        blockcInstructions += a.blockc.instructions - b.blockc.instructions;
        icacheHits += a.icacheHits - b.icacheHits;
        icacheMisses += a.icacheMisses - b.icacheMisses;
        forwards += a.routeForwards - b.routeForwards;
        retransmits += a.routeRetransmits - b.routeRetransmits;
        hopRetransmits += a.routeHopRetransmits - b.routeHopRetransmits;
        delivered += a.routeDelivered - b.routeDelivered;
    }

    void
    add(const Tally &o)
    {
        events += o.events;
        instructions += o.instructions;
        linkBytes += o.linkBytes;
        fusedRuns += o.fusedRuns;
        fusedInstructions += o.fusedInstructions;
        blockcInstructions += o.blockcInstructions;
        icacheHits += o.icacheHits;
        icacheMisses += o.icacheMisses;
        forwards += o.forwards;
        retransmits += o.retransmits;
        hopRetransmits += o.hopRetransmits;
        delivered += o.delivered;
        faultDrops += o.faultDrops;
        add(o.parRounds, o.parBarriers, o.shardEvents);
        parStalls += o.parStalls;
    }

    /** Add one sharded run's rounds, barriers and per-shard events. */
    void
    add(uint64_t rounds, uint64_t barriers,
        const std::vector<uint64_t> &perShard)
    {
        parRounds += rounds;
        parBarriers += barriers;
        shardEvents.resize(std::max(shardEvents.size(), perShard.size()));
        for (size_t i = 0; i < perShard.size(); ++i)
            shardEvents[i] += perShard[i];
    }
};

/** One round: its timed region, its guest work and its answers. */
struct Round
{
    double wall = 0;
    double cpu = 0;
    uint64_t instructions = 0;
    int64_t simNs = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Set-ups the round did after its timed region, seconds each. */
    std::vector<double> setups;
    Tally tally; ///< filled in traced rounds only
};

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

/** The per-layer metrics, in output order, and their units. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_link_byte", "events/byte"},
    {"sim.pending_high_water", "count"},
    {"sim.next_time_for_ns", "ns"},
    {"sim.schedule_dispatch_ns", "ns"},
    {"core.guest_instructions", "count"},
    {"core.plain_mips", "MIPS"},
    {"core.fused_mips", "MIPS"},
    {"core.blockc_mips", "MIPS"},
    {"core.fused_mean_run", "instructions"},
    {"core.blockc_chain_share", "fraction"},
    {"core.icache_hit_rate", "fraction"},
    {"isa.op_defined_ns", "ns"},
    {"link.bytes", "bytes"},
    {"link.host_ns_per_byte", "ns/byte"},
    {"par.rounds", "count"},
    {"par.barriers", "count"},
    {"par.stalls", "count"},
    {"par.imbalance", "x"},
    {"par.event_inflation", "x"},
    {"par.barrier_round_us", "us"},
    {"route.forwards", "count"},
    {"route.retransmits", "count"},
    {"route.hop_retransmits", "count"},
    {"route.events_per_delivery", "events/delivery"},
    {"route.decode_ns_per_packet", "ns/packet"},
    {"route.table_build_ms", "ms"},
    {"fault.drops", "count"},
    {"occam.compile_ms", "ms"},
    {"net.build_s", "s"},
    {"net.settle_s", "s"},
    {"mem.bytes_per_node", "bytes/node"},
    {"obs.trace_overhead", "x"},
};

/** Per-layer figures under construction; unset ones report 0 (the
 *  workload does not use that layer). */
struct Layers
{
    std::map<std::string, double> v;
    bool ok = true;
    std::vector<std::string> why;

    void
    fail(const std::string &reason)
    {
        ok = false;
        why.push_back(reason);
    }

    void
    kernel(const std::string &name, const KernelResult &r)
    {
        v[name] = r.value;
        if (!r.ok)
            fail(name + ": " + r.why);
    }
};

/** Mean host footprint of a network's nodes, bytes. */
double
bytesPerNode(net::Network &net)
{
    double total = 0;
    for (size_t i = 0; i < net.size(); ++i)
        total += static_cast<double>(
            net.node(static_cast<int>(i)).footprintBytes());
    return net.size() ? total / static_cast<double>(net.size()) : 0.0;
}

/** Instructions retired so far by every node of a network. */
uint64_t
guestInstructions(net::Network &net)
{
    uint64_t n = 0;
    for (size_t i = 0; i < net.size(); ++i)
        n += net.node(static_cast<int>(i)).instructions();
    return n;
}

/** Time build(n) on an empty network.  What build returns, and the
 *  network, are torn down after the clock stops. */
template <typename Build>
double
buildSeconds(Spans &spans, Build build)
{
    net::Network n;
    const int span = spans.open("net.build");
    Stopwatch sw;
    const auto built = build(n);
    const double secs = sw.wall();
    spans.close(span);
    return secs;
}

/** Time n.run() to quiescence after the node programs booted. */
double
settleSeconds(net::Network &n, Spans &spans)
{
    Scope s(spans, "net.settle");
    Stopwatch sw;
    n.run();
    return sw.wall();
}

/** A workload: set-up, rounds, and what its traced run adds. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** How many set-ups a timed run measures before its rounds; a
     *  workload that sets up afresh in every round adds those too. */
    virtual int setupReps() const { return 3; }
    /** Replace the live instance with a freshly set-up one; returns
     *  the seconds the set-up took, the old instance's teardown
     *  excluded. */
    virtual double setup(Spans &spans) = 0;
    /** One round on the live instance. */
    virtual Round round(Spans &spans) = 0;
    /** Whole-run checks; empty when they pass. */
    virtual std::string finish() { return ""; }
    /** Workload-specific per-layer figures (traced run only). */
    virtual void layers(Layers &out, Spans &spans, int rounds) = 0;
    /** Untraced/traced round pairs the traced run makes. */
    virtual int tracedPairs() const { return 5; }
};

// ------------------------------------------------------------ e7_loop

class E7Loop : public Workload
{
  public:
    E7Loop(uint64_t seed, bool slowCpu)
    {
        Rng rng(seed ^ 0xE7);
        // the seed moves the loop count, and with it the simulated
        // time, by under 0.1%
        n_ = 1'000'000 + rng.below(1000);
        cfg_.predecode = cfg_.blockCompile = !slowCpu;
    }

    int setupReps() const override { return 5; }

    double
    setup(Spans &spans) override
    {
        rig_.reset();
        Scope s(spans, "tasm+net.build");
        Stopwatch sw;
        rig_ = std::make_unique<E7Rig>(cfg_, n_);
        return sw.wall();
    }

    Round
    round(Spans &spans) override
    {
        Round r;
        {
            Scope s(spans, "net.run");
            Stopwatch sw;
            rig_->run();
            r.wall = sw.wall();
            r.cpu = sw.cpu();
        }
        const auto &cpu = rig_->net.node(0);
        r.instructions = cpu.instructions();
        r.simNs = cpu.localTime();
        r.attempted = 1;
        r.failed = cpu.instructions() != rig_->expect.instructions ||
                   cpu.cycles() != rig_->expect.cycles ||
                   cpu.state() == core::CpuState::Halted;
        if (spans.enabled) {
            r.tally.add(rig_->net.counters(), obs::Counters{});
            r.tally.events = rig_->net.queue().dispatched();
        }
        highWater_ = rig_->net.queue().highWater();
        footprint_ = bytesPerNode(rig_->net);
        // the loop runs once per boot: the next round needs a fresh
        // machine, built outside the timed region
        r.setups.push_back(setup(spans));
        return r;
    }

    void
    layers(Layers &out, Spans &spans, int) override
    {
        out.v["sim.pending_high_water"] = static_cast<double>(highWater_);
        out.v["mem.bytes_per_node"] = footprint_;
        Scope s(spans, "net.build");
        Stopwatch sw;
        E7Rig rig(cfg_, n_);
        out.v["net.build_s"] = sw.wall();
        // nothing to settle: the loop starts at boot
    }

  private:
    uint64_t n_ = 0;
    core::Config cfg_;
    std::unique_ptr<E7Rig> rig_;
    size_t highWater_ = 0;
    double footprint_ = 0;
};

// ------------------------------------------------------ dbsearch_16x8

class DbSearch16x8 : public Workload
{
  public:
    static constexpr int kQueries = 8; ///< pipelined queries per round

    DbSearch16x8(uint64_t seed, bool slowCpu)
    {
        cfg_.width = 16;
        cfg_.height = 8;
        // the paper fixes only the 200 records a node; over 55 keys
        // the record rule gives the board 9 different counts, so the
        // 8 keys of a round can all count differently and a swapped
        // or misdirected answer shows
        cfg_.keySpace = 55;
        cfg_.node.predecode = cfg_.node.blockCompile = !slowCpu;
        const int nodes = cfg_.width * cfg_.height;
        Rng rng(seed ^ 0xDB);
        keys_ = dbQueryKeys(rng, kQueries, nodes, cfg_.recordsPerNode,
                            cfg_.keySpace);
        for (const uint32_t key : keys_)
            expected_.push_back(
                dbCount(nodes, cfg_.recordsPerNode, cfg_.keySpace, key));
    }

    double
    setup(Spans &spans) override
    {
        db_.reset();
        Scope s(spans, "apps::DbSearch");
        Stopwatch sw;
        db_ = std::make_unique<apps::DbSearch>(cfg_);
        return sw.wall();
    }

    Round
    round(Spans &spans) override
    {
        auto &net = db_->network();
        auto &q = net.queue();
        const size_t first = db_->answers().size();
        obs::Counters before;
        if (spans.enabled)
            before = net.counters();
        const uint64_t events0 = q.dispatched();
        const uint64_t instr0 = guestInstructions(net);
        Round r;
        Stopwatch sw;
        {
            Scope s(spans, "inject");
            for (const uint32_t k : keys_)
                db_->inject(k);
        }
        {
            Scope s(spans, "net.run");
            db_->runUntilAnswers(first + keys_.size(),
                                 q.now() + 10'000'000'000);
        }
        std::vector<uint32_t> got;
        for (size_t i = first; i < db_->answers().size(); ++i)
            got.push_back(db_->answers()[i].count);
        r.failed = countMismatches(expected_, got);
        r.wall = sw.wall();
        r.cpu = sw.cpu();
        r.attempted = keys_.size();
        r.simNs = (db_->answers().size() > first
                       ? db_->answers().back().when
                       : q.now()) -
                  db_->injectTime(first);
        r.instructions = guestInstructions(net) - instr0;
        if (spans.enabled) {
            r.tally.add(net.counters(), before);
            r.tally.events = q.dispatched() - events0;
        }
        highWater_ = std::max(highWater_, q.highWater());
        footprint_ = bytesPerNode(net);
        // every round on a fresh board, built outside the timed
        // region, so setup_s gets a sample per round
        r.setups.push_back(setup(spans));
        return r;
    }

    void
    layers(Layers &out, Spans &spans, int) override
    {
        out.v["sim.pending_high_water"] = static_cast<double>(highWater_);
        out.v["mem.bytes_per_node"] = footprint_;
        db_.reset();
        out.v["net.build_s"] = buildSeconds(spans, [&](net::Network &n) {
            return net::buildGrid(n, cfg_.width, cfg_.height, cfg_.node);
        });
        // net.settle_s stays 0: apps::DbSearch settles inside its
        // constructor, with no switch to leave that out
    }

    /** The generated occam node programs, node by node. */
    std::vector<std::string>
    programs()
    {
        std::vector<std::string> p;
        for (int y = 0; y < cfg_.height; ++y)
            for (int x = 0; x < cfg_.width; ++x)
                p.push_back(db_->nodeProgram(x, y));
        return p;
    }

  private:
    apps::DbSearchConfig cfg_;
    std::vector<uint32_t> keys_;
    std::vector<uint32_t> expected_;
    std::unique_ptr<apps::DbSearch> db_;
    size_t highWater_ = 0;
    double footprint_ = 0;
};

// --------------------------------------------------------- flood_100k

class Flood100k : public Workload
{
  public:
    static constexpr int kWaves = 2; ///< waves per round

    explicit Flood100k(uint64_t seed)
    {
        cfg_.width = 320;
        cfg_.height = 313;
        Rng rng(seed ^ 0xF1);
        for (int i = 0; i < kWaves; ++i) {
            keys_.push_back(static_cast<uint32_t>(rng.below(1u << 30)));
            // host think time before the wave: 0-50 us, against a
            // wave of several simulated milliseconds
            gaps_.push_back(static_cast<Tick>(rng.below(50'000)));
        }
        opts_.threads = 2;
    }

    int tracedPairs() const override { return 2; }

    double
    setup(Spans &spans) override
    {
        flood_.reset();
        Scope s(spans, "apps::Flood");
        Stopwatch sw;
        flood_ = std::make_unique<apps::Flood>(cfg_);
        return sw.wall();
    }

    /**
     * The timed rounds run on the serial engine.  On 2 shards a
     * round's wall time hangs on how soon the host wakes a shard
     * thread at each barrier: over ten seeds on the shared 4-core
     * host, rounds took 4-13 s against 5-6.5 s of CPU time, and the
     * quartile spread of run_s was 0.75.  The 2-shard run is kept for
     * the traced run's par metrics.
     */
    Round
    round(Spans &spans) override
    {
        return waves(spans, false);
    }

    void
    layers(Layers &out, Spans &spans, int rounds) override
    {
        out.v["mem.bytes_per_node"] = bytesPerNode(flood_->network());
        out.v["sim.pending_high_water"] =
            static_cast<double>(flood_->network().queue().highWater());
        const obs::Counters serial = flood_->network().counters();

        // the same waves on 2 shards must retire exactly the same
        // architectural state
        flood_.reset();
        {
            Scope s(spans, "apps::Flood");
            flood_ = std::make_unique<apps::Flood>(cfg_);
        }
        Tally sharded;
        for (int i = 0; i < rounds; ++i) {
            const Round r = waves(spans, true);
            if (r.failed)
                out.fail("flood_100k: the 2-shard run answered wrongly");
            sharded.add(r.tally);
        }
        if (!obs::sameArchitectural(serial, flood_->network().counters()))
            out.fail("flood_100k: 2 shards and the serial engine differ");
        out.v["par.rounds"] = static_cast<double>(sharded.parRounds);
        out.v["par.barriers"] = static_cast<double>(sharded.parBarriers);
        out.v["par.stalls"] = static_cast<double>(sharded.parStalls);
        uint64_t busiest = 0, total = 0;
        for (const uint64_t e : sharded.shardEvents) {
            busiest = std::max(busiest, e);
            total += e;
        }
        out.v["par.imbalance"] =
            ratio(static_cast<double>(busiest * sharded.shardEvents.size()),
                  static_cast<double>(total));
        out.v["par.event_inflation"] =
            ratio(static_cast<double>(sharded.events),
                  static_cast<double>(serialEvents_));
        flood_.reset();

        out.v["net.build_s"] = buildSeconds(spans, [&](net::Network &n) {
            return net::buildGrid(n, cfg_.width, cfg_.height, cfg_.node);
        });
        apps::FloodConfig booted = cfg_;
        booted.settle = false;
        {
            Scope s(spans, "apps::Flood(unsettled)");
            flood_ = std::make_unique<apps::Flood>(booted);
        }
        out.v["net.settle_s"] = settleSeconds(flood_->network(), spans);
        flood_.reset();
    }

  private:
    /** One round of waves, on 2 shards or on the serial engine. */
    Round
    waves(Spans &spans, bool sharded)
    {
        auto &net = flood_->network();
        const size_t first = flood_->answers().size();
        obs::Counters before;
        if (spans.enabled)
            before = net.counters();
        const uint64_t instr0 = guestInstructions(net);
        const uint64_t events0 = net.queue().dispatched();
        Round r;
        Tick start = 0;
        Stopwatch sw;
        for (int w = 0; w < kWaves; ++w) {
            // idle the host for its think time (no events: the array
            // is quiescent between waves)
            net.run(net.queue().now() + gaps_[static_cast<size_t>(w)]);
            if (w == 0)
                start = net.queue().now();
            {
                Scope s(spans, "inject");
                flood_->inject(keys_[static_cast<size_t>(w)]);
            }
            Scope s(spans, sharded ? "par::runParallel" : "net.run");
            if (sharded) {
                par::RunStats st;
                par::runParallel(net, maxTick, opts_, &st);
                r.tally.events += st.totalEvents();
                std::vector<uint64_t> perShard;
                for (const par::ShardStats &sh : st.shards) {
                    perShard.push_back(sh.events);
                    r.tally.parStalls += sh.stalls;
                }
                r.tally.add(st.rounds, st.barriers, perShard);
            } else {
                flood_->runUntilAnswers(first + w + 1,
                                        net.queue().now() +
                                            10'000'000'000);
                // drain to quiescence like the sharded run does
                net.run();
            }
        }
        std::vector<uint32_t> got;
        for (size_t i = first; i < flood_->answers().size(); ++i)
            got.push_back(flood_->answers()[i].count);
        r.failed = countMismatches(
            std::vector<uint32_t>(kWaves, static_cast<uint32_t>(
                                              cfg_.width * cfg_.height)),
            got);
        // a wave that answered twice is wrong too
        if (got.size() > static_cast<size_t>(kWaves))
            r.failed = kWaves;
        r.wall = sw.wall();
        r.cpu = sw.cpu();
        r.attempted = kWaves;
        r.simNs = (flood_->answers().size() > first
                       ? flood_->answers().back().when
                       : net.queue().now()) -
                  start;
        r.instructions = guestInstructions(net) - instr0;
        if (!sharded) {
            r.tally.events = net.queue().dispatched() - events0;
            serialEvents_ += r.tally.events;
        }
        if (spans.enabled)
            r.tally.add(net.counters(), before);
        return r;
    }

    apps::FloodConfig cfg_;
    net::RunOptions opts_;
    std::vector<uint32_t> keys_;
    std::vector<Tick> gaps_;
    std::unique_ptr<apps::Flood> flood_;
    uint64_t serialEvents_ = 0; ///< over every serial round
};

// --------------------------------------------------- routed_8x8_lossy

class Routed8x8Lossy : public Workload
{
  public:
    static constexpr int kWaves = 2; ///< waves per round

    explicit Routed8x8Lossy(uint64_t seed)
    {
        cfg_.topo = route::Topology::torus(8, 8);
        const int terminals = cfg_.topo.size() - 1;
        // per wave: every terminal once, in a seeded order, each with
        // its own seeded key
        Rng rng(seed ^ 0x88);
        for (int w = 0; w < kWaves; ++w) {
            std::vector<uint32_t> order;
            for (int t = 1; t <= terminals; ++t)
                order.push_back(static_cast<uint32_t>(t));
            for (size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
            std::vector<uint32_t> keys(static_cast<size_t>(terminals) + 1);
            for (auto &k : keys)
                k = static_cast<uint32_t>(rng.below(1u << 30));
            orders_.push_back(std::move(order));
            keys_.push_back(std::move(keys));
        }
    }

    int setupReps() const override { return 5; }

    double
    setup(Spans &spans) override
    {
        injector_.reset();
        rq_.reset();
        Scope s(spans, "apps::RoutedQuery+fault::arm");
        Stopwatch sw;
        rq_ = std::make_unique<apps::RoutedQuery>(cfg_);
        injector_ = std::make_unique<fault::FaultInjector>();
        injector_->arm(rq_->network(), plan(*rq_));
        return sw.wall();
    }

    /**
     * Waves of 63 queries, each on a freshly set-up fabric.  Waves are
     * not chained on one fabric: a wave injected while the previous
     * wave's retransmissions are still in flight draws undeliverable
     * notices and stale replies (see CHANGES.md), so every wave gets
     * its own fabric, built outside the timed region.
     */
    Round
    round(Spans &spans) override
    {
        Round r;
        for (int w = 0; w < kWaves; ++w) {
            const Round one = wave(spans, orders_[static_cast<size_t>(w)],
                                   keys_[static_cast<size_t>(w)]);
            r.wall += one.wall;
            r.cpu += one.cpu;
            r.instructions += one.instructions;
            r.simNs += one.simNs;
            r.attempted += one.attempted;
            r.failed += one.failed;
            r.setups.insert(r.setups.end(), one.setups.begin(),
                            one.setups.end());
            r.tally.add(one.tally);
        }
        return r;
    }

    std::string
    finish() override
    {
        return faultless_ ? "routed_8x8_lossy: a wave ran without "
                            "injected data and ack losses"
                          : "";
    }

    void
    layers(Layers &out, Spans &spans, int) override
    {
        out.v["sim.pending_high_water"] = static_cast<double>(highWater_);
        out.v["mem.bytes_per_node"] = footprint_;
        injector_.reset();
        rq_.reset();

        out.v["net.build_s"] = buildSeconds(spans, [&](net::Network &n) {
            route::FabricConfig fc;
            fc.node = cfg_.node;
            fc.wire = cfg_.wire;
            fc.sw = cfg_.sw;
            fc.sw.bytesPerWord = cfg_.node.shape.bytes;
            return std::make_unique<route::Fabric>(n, cfg_.topo, fc);
        });
        apps::RoutedQueryConfig booted = cfg_;
        booted.settle = false;
        {
            Scope s(spans, "apps::RoutedQuery(unsettled)");
            rq_ = std::make_unique<apps::RoutedQuery>(booted);
        }
        out.v["net.settle_s"] = settleSeconds(rq_->network(), spans);
        rq_.reset();
    }

  private:
    /** One wave on the live fabric, then a fresh fabric. */
    Round
    wave(Spans &spans, const std::vector<uint32_t> &order,
         const std::vector<uint32_t> &keys)
    {
        auto &q = rq_->network().queue();
        obs::Counters before;
        if (spans.enabled)
            before = rq_->fabric().counters();
        const uint64_t events0 = q.dispatched();
        const uint64_t instr0 = guestInstructions(rq_->network());
        const int terminals = rq_->nodes() - 1;
        Round r;
        const Tick start = q.now();
        Stopwatch sw;
        {
            Scope s(spans, "inject");
            for (const uint32_t d : order)
                rq_->inject(d, keys[d]);
        }
        {
            Scope s(spans, "net.run");
            rq_->runUntilAnswers(static_cast<size_t>(terminals),
                                 start + 30'000'000'000);
        }
        std::vector<RoutedReply> got;
        for (const auto &a : rq_->answers())
            got.push_back(RoutedReply{a.src, a.vchan, a.word});
        r.failed = routedWaveFailures(got, terminals, keys);
        r.wall = sw.wall();
        r.cpu = sw.cpu();
        r.attempted = static_cast<uint64_t>(terminals);
        r.simNs = (rq_->answers().empty() ? q.now()
                                          : rq_->answers().back().when) -
                  start;
        r.instructions = guestInstructions(rq_->network()) - instr0;
        const auto st = injector_->stats();
        if (spans.enabled) {
            r.tally.add(rq_->fabric().counters(), before);
            r.tally.events = q.dispatched() - events0;
            r.tally.faultDrops = st.dataDropped + st.acksDropped;
        }
        if (st.dataDropped == 0 || st.acksDropped == 0)
            faultless_ = true;
        highWater_ = std::max(highWater_, q.highWater());
        footprint_ = bytesPerNode(rq_->network());
        r.setups.push_back(setup(spans));
        return r;
    }

    /**
     * 10% data loss and 5% ack loss on every trunk, from a fixed fault
     * seed; no kills.  No corruption: at 1% corruption a wave on a
     * fresh fabric loses its reply framing on some query orders (see
     * CHANGES.md), which would fail a seed-dependent share of queries.
     */
    static fault::FaultPlan
    plan(apps::RoutedQuery &rq)
    {
        fault::FaultPlan p;
        p.seed = 4242;
        auto &fab = rq.fabric();
        for (int a = 0; a < fab.topo().size(); ++a)
            for (const int b : fab.topo().ports[static_cast<size_t>(a)]) {
                fault::LineFaultConfig &f =
                    p.line(fab.netNode(a), fab.netNode(b));
                f.dataLoss = 0.10;
                f.ackLoss = 0.05;
            }
        return p;
    }

    apps::RoutedQueryConfig cfg_;
    std::vector<std::vector<uint32_t>> orders_;
    std::vector<std::vector<uint32_t>> keys_; ///< per wave, by terminal
    bool faultless_ = false;
    size_t highWater_ = 0;
    double footprint_ = 0;
    // declared after rq_ so it is destroyed first: its taps sit on
    // the network's lines
    std::unique_ptr<apps::RoutedQuery> rq_;
    std::unique_ptr<fault::FaultInjector> injector_;
};

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "e7_loop")
        return std::make_unique<E7Loop>(o.seed, o.slowCpu);
    if (o.workload == "dbsearch_16x8")
        return std::make_unique<DbSearch16x8>(o.seed, o.slowCpu);
    if (o.slowCpu)
        throw std::invalid_argument("--slow-cpu is for e7_loop and "
                                    "dbsearch_16x8 only");
    if (o.workload == "flood_100k")
        return std::make_unique<Flood100k>(o.seed);
    if (o.workload == "routed_8x8_lossy")
        return std::make_unique<Routed8x8Lossy>(o.seed);
    throw std::invalid_argument("unknown workload: " + o.workload);
}

void
count(Outcome &o, const Round &r)
{
    o.attempted += r.attempted;
    o.failed += r.failed;
}

/** The untraced run: every end-to-end metric. */
Outcome
timedRun(Workload &w, const Options &opts)
{
    Outcome o;
    Spans off;
    std::vector<double> setups;
    for (int i = 0; i < w.setupReps(); ++i)
        setups.push_back(w.setup(off));
    std::vector<double> wall, cpu, instructions;
    int64_t simNs = 0;
    Stopwatch total;
    while (wall.size() < kMinRounds || total.wall() < opts.seconds) {
        const Round r = w.round(off);
        count(o, r);
        setups.insert(setups.end(), r.setups.begin(), r.setups.end());
        if (wall.empty())
            simNs = r.simNs; // rounds repeat the same inputs
        wall.push_back(r.wall);
        cpu.push_back(r.cpu);
        instructions.push_back(static_cast<double>(r.instructions));
    }
    const std::string why = w.finish();
    if (!why.empty()) {
        o.correct = false;
        o.notes.push_back(why);
    }
    o.notes.push_back(std::to_string(wall.size()) + " rounds, " +
                      std::to_string(setups.size()) + " set-ups");
    std::string times = "round wall s:";
    for (const double x : wall)
        times += " " + std::to_string(x);
    o.notes.push_back(times);
    // interquartile means over the rounds: on a shared host whose
    // speed drifts in phases they vary less from run to run than
    // medians, which jump when a run's rounds split between a fast and
    // a slow phase, and unlike plain means they shrug off the odd
    // outlying round
    const double runS = interquartileMean(wall);
    o.metrics = {
        {"run_s", "s", runS},
        {"cpu_s", "s", interquartileMean(cpu)},
        {"setup_s", "s", median(setups)},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"guest_mips", "MIPS", median(instructions) / runS / 1e6},
        {"sim_us", "us", static_cast<double>(simNs) / 1e3},
    };
    return o;
}

/** The traced run: spans, counters, microkernels, every per-layer
 *  metric. */
Outcome
tracedRun(Workload &w, const Options &opts)
{
    Outcome o;
    Layers L;
    Spans spans;
    spans.enabled = true;
    {
        Scope s(spans, "setup");
        w.setup(spans);
    }
    // alternate untraced and traced rounds, so a host slowdown lands
    // on both sides of obs.trace_overhead
    const int pairs = w.tracedPairs();
    std::vector<double> plainWall, tracedWall;
    Tally tally;
    double tracedSecs = 0;
    for (int i = 0; i < pairs; ++i) {
        spans.enabled = false;
        const Round a = w.round(spans);
        spans.enabled = true;
        Round b;
        {
            Scope s(spans, "round");
            b = w.round(spans);
        }
        count(o, a);
        count(o, b);
        plainWall.push_back(a.wall);
        tracedWall.push_back(b.wall);
        tracedSecs += b.wall;
        tally.add(b.tally);
    }
    L.v["obs.trace_overhead"] =
        ratio(interquartileMean(tracedWall), interquartileMean(plainWall));
    const std::string why = w.finish();
    if (!why.empty())
        L.fail(why);

    L.v["sim.events"] = static_cast<double>(tally.events);
    L.v["sim.ns_per_event"] =
        ratio(tracedSecs * 1e9, static_cast<double>(tally.events));
    L.v["sim.events_per_link_byte"] =
        ratio(static_cast<double>(tally.events),
              static_cast<double>(tally.linkBytes));
    L.v["core.guest_instructions"] = static_cast<double>(tally.instructions);
    L.v["core.fused_mean_run"] =
        ratio(static_cast<double>(tally.fusedInstructions),
              static_cast<double>(tally.fusedRuns));
    L.v["core.blockc_chain_share"] =
        ratio(static_cast<double>(tally.blockcInstructions),
              static_cast<double>(tally.instructions));
    L.v["core.icache_hit_rate"] =
        ratio(static_cast<double>(tally.icacheHits),
              static_cast<double>(tally.icacheHits + tally.icacheMisses));
    L.v["link.bytes"] = static_cast<double>(tally.linkBytes);
    L.v["route.forwards"] = static_cast<double>(tally.forwards);
    L.v["route.retransmits"] = static_cast<double>(tally.retransmits);
    L.v["route.hop_retransmits"] = static_cast<double>(tally.hopRetransmits);
    L.v["route.events_per_delivery"] =
        ratio(static_cast<double>(tally.events),
              static_cast<double>(tally.delivered));
    L.v["fault.drops"] = static_cast<double>(tally.faultDrops);

    {
        Scope s(spans, "layers");
        w.layers(L, spans, 2 * pairs);
    }

    {
        Scope s(spans, "kernels");
        L.kernel("sim.schedule_dispatch_ns", scheduleDispatchNs());
        L.kernel("sim.next_time_for_ns", nextTimeForNs());
        L.kernel("isa.op_defined_ns", opDefinedNs());
        L.kernel("link.host_ns_per_byte", linkHostNsPerByte());
        L.kernel("par.barrier_round_us", barrierRoundUs());
        L.kernel("route.decode_ns_per_packet", decodeNsPerPacket());
        L.kernel("route.table_build_ms", tableBuildMs());
        // the Figure 8 board's 128 generated node programs
        DbSearch16x8 board(opts.seed, false);
        board.setup(spans);
        L.kernel("occam.compile_ms", compileMs(board.programs()));
        const TierRates t = tierRates();
        L.v["core.plain_mips"] = t.plainMips;
        L.v["core.fused_mips"] = t.fusedMips;
        L.v["core.blockc_mips"] = t.blockcMips;
        if (!t.ok)
            L.fail(t.why);
    }

    o.correct = L.ok;
    o.notes = L.why;
    for (const auto &[name, unit] : kLayerMetrics)
        o.metrics.push_back(Metric{name, unit, L.v[name]});
    std::map<std::string, int> names;
    for (const Spans::Span &sp : spans.spans())
        ++names[sp.name];
    for (const auto &[name, n] : names)
        o.notes.push_back("span " + name + " x" + std::to_string(n) +
                          ": total " + std::to_string(spans.total(name)) +
                          " s, self " + std::to_string(spans.selfTime(name)) +
                          " s");
    if (!opts.traceOut.empty()) {
        const std::string j = spans.chromeJson();
        bool written = false;
        if (FILE *f = std::fopen(opts.traceOut.c_str(), "w")) {
            written = std::fwrite(j.data(), 1, j.size(), f) == j.size();
            written = std::fclose(f) == 0 && written;
        }
        if (written)
            o.notes.push_back("spans written to " + opts.traceOut);
        else
            o.notes.push_back("could not write " + opts.traceOut);
    }
    return o;
}

} // namespace

Outcome
runWorkload(const Options &opts)
{
    auto w = makeWorkload(opts);
    Outcome o = opts.trace ? tracedRun(*w, opts) : timedRun(*w, opts);
    if (o.failed) {
        o.notes.push_back(std::to_string(o.failed) + " of " +
                          std::to_string(o.attempted) +
                          " operations failed");
    }
    return o;
}

} // namespace perfbench
