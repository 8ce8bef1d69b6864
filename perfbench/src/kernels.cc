#include "kernels.hh"

#include <atomic>
#include <cstdlib>
#include <thread>

#include "isa/opcodes.hh"
#include "net/occam_boot.hh"
#include "par/barrier.hh"
#include "route/packet.hh"
#include "route/table.hh"
#include "sim/event_queue.hh"
#include "tasm/assembler.hh"
#include "workloads.hh"

using namespace transputer;

namespace perfbench
{

namespace
{

constexpr int kReps = 5; ///< repetitions per kernel; the median counts

KernelResult
fail(const std::string &why)
{
    return KernelResult{0, false, why};
}

KernelResult
measured(double value)
{
    return KernelResult{value, true, {}};
}

} // namespace

KernelResult
scheduleDispatchNs()
{
    // far-future backlog: the depth the flood and routed queues hold
    // while a wave is in flight
    constexpr uint32_t backlog = 256;
    constexpr int calls = 200'000;
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
        sim::EventQueue q;
        for (uint32_t i = 0; i < backlog; ++i)
            q.schedule(maxTick / 2 + i,
                       sim::EventKey{i + 1, sim::chanSelf, 0}, [] {});
        uint64_t fired = 0;
        uint64_t seq = 0;
        Stopwatch sw;
        for (int i = 0; i < calls; ++i) {
            q.schedule(q.now() + 1 + (i & 7),
                       sim::EventKey{backlog + 1, sim::chanSelf, ++seq},
                       [&fired] { ++fired; });
            q.runOne();
        }
        ns.push_back(sw.wall() / calls * 1e9);
        if (fired != static_cast<uint64_t>(calls) ||
            q.pending() != backlog)
            return fail("schedule/runOne lost or added events");
    }
    return measured(median(ns));
}

KernelResult
nextTimeForNs()
{
    // the dbsearch 16x8 board: one group per node, distances the
    // Manhattan hop count times the minimum link lead, and the
    // pending high-water the board reaches while answering queries
    constexpr int w = 16, h = 8, groups = w * h;
    constexpr int pending = 142;
    constexpr Tick lead = 200; // two bit-times at 10 Mbit/s
    std::vector<int32_t> groupOf(groups + 1, -1);
    for (int g = 0; g < groups; ++g)
        groupOf[static_cast<size_t>(g + 1)] = g;
    std::vector<Tick> dist(static_cast<size_t>(groups) * groups);
    for (int a = 0; a < groups; ++a)
        for (int b = 0; b < groups; ++b)
            dist[static_cast<size_t>(a) * groups + b] =
                lead * (std::abs(a % w - b % w) + std::abs(a / w - b / w));

    sim::EventQueue q;
    q.setTopology(groupOf, groups, dist);
    Rng rng(142);
    struct Ev
    {
        uint32_t actor;
        Tick when;
    };
    std::vector<Ev> evs;
    for (int i = 0; i < pending; ++i) {
        const Ev e{static_cast<uint32_t>(1 + rng.below(groups)),
                   static_cast<Tick>(1000 + rng.below(100'000))};
        evs.push_back(e);
        q.schedule(e.when,
                   sim::EventKey{e.actor, sim::chanSelf,
                                 static_cast<uint64_t>(i)},
                   [] {});
    }
    // the bound, recomputed by brute force from the same events
    for (uint32_t a = 1; a <= groups; ++a) {
        Tick best = maxTick;
        const int me = static_cast<int>(a) - 1;
        for (const Ev &e : evs) {
            const int g = static_cast<int>(e.actor) - 1;
            best = std::min(
                best, e.when + dist[static_cast<size_t>(g) * groups + me]);
        }
        if (q.nextTimeFor(a) != best)
            return fail("nextTimeFor disagrees with the brute-force bound");
    }
    constexpr int calls = 20'000;
    std::vector<double> ns;
    Tick sink = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch sw;
        for (int i = 0; i < calls; ++i)
            sink ^= q.nextTimeFor(static_cast<uint32_t>(1 + i % groups));
        ns.push_back(sw.wall() / calls * 1e9);
    }
    if (sink == -1)
        return fail("unreachable");
    return measured(median(ns));
}

KernelResult
opDefinedNs()
{
    // defined and undefined codes alike: every operation slot of the
    // T414 numbering plus the gaps between them
    constexpr uint32_t codes = 0x80;
    constexpr int sweeps = 10'000;
    if (!isa::opDefined(static_cast<uint32_t>(isa::Op::ADD)) ||
        !isa::opDefined(static_cast<uint32_t>(isa::Op::OUT)) ||
        isa::opDefined(0xFFFF))
        return fail("opDefined misclassifies a known code");
    std::vector<double> ns;
    uint64_t first = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        uint64_t defined = 0;
        Stopwatch sw;
        for (int s = 0; s < sweeps; ++s)
            for (uint32_t c = 0; c < codes; ++c)
                defined += isa::opDefined(c);
        ns.push_back(sw.wall() / (sweeps * codes) * 1e9);
        if (rep == 0)
            first = defined;
        if (defined != first || defined == 0)
            return fail("opDefined answers changed between sweeps");
    }
    return measured(median(ns));
}

KernelResult
linkHostNsPerByte()
{
    // one message of n bytes from node a's east link to node b's west
    // link (the Figure 1 protocol: 11 bit-times a byte, overlapped acks)
    constexpr int n = 8192;
    auto program = [](const char *op) {
        return std::string("start:\n  mint\n ldnlp ") +
               (op[0] == 'o' ? "1" : "7") +
               "\n stl 1\n  ldlp 40\n ldl 1\n ldc " + std::to_string(n) +
               "\n " + op + "\n stopp\n";
    };
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
        net::Network net;
        core::Config cfg;
        cfg.onchipBytes = 16384;
        const int a = net.addTransputer(cfg);
        const int b = net.addTransputer(cfg);
        net.connect(a, net::dir::east, b, net::dir::west);
        for (const auto &[node, op] :
             {std::pair{a, "out"}, std::pair{b, "in"}}) {
            auto &t = net.node(node);
            const auto img = tasm::assemble(program(op),
                                            t.memory().memStart(),
                                            t.shape());
            net.bootImage(node, img, "start", 256);
        }
        Stopwatch sw;
        const Tick end = net.run();
        ns.push_back(sw.wall() / n * 1e9);
        const obs::Counters c = net.counters();
        if (c.linkBytesOut != static_cast<uint64_t>(n) ||
            c.linkBytesIn != static_cast<uint64_t>(n))
            return fail("link stream lost bytes");
        if (!linkRateOk(n, end))
            return fail("simulated link rate is not 10 Mbit/s / 11 bits");
    }
    return measured(median(ns));
}

KernelResult
barrierRoundUs()
{
    constexpr int rounds = 20'000;
    std::vector<double> us;
    for (int rep = 0; rep < 3; ++rep) {
        par::Barrier barrier(2);
        std::atomic<int> arrivals{0};
        std::atomic<bool> early{false};
        auto party = [&] {
            for (int r = 0; r < rounds; ++r) {
                arrivals.fetch_add(1);
                barrier.arriveAndWait();
                // nobody leaves round r before both parties arrived
                if (arrivals.load() < 2 * (r + 1))
                    early = true;
            }
        };
        Stopwatch sw;
        std::thread other(party);
        party();
        other.join();
        us.push_back(sw.wall() / rounds * 1e6);
        if (early || arrivals.load() != 2 * rounds)
            return fail("a party left the barrier early");
    }
    return measured(median(us));
}

KernelResult
decodeNsPerPacket()
{
    // one-word data packets, as the routed query root and terminals
    // exchange them on the 8x8 torus
    constexpr int packets = 20'000;
    std::vector<uint8_t> stream;
    for (int i = 0; i < packets; ++i) {
        route::Packet p;
        p.dest = static_cast<uint16_t>(i % 64);
        p.src = static_cast<uint16_t>((i * 7) % 64);
        p.seq = static_cast<uint16_t>(i);
        p.hopSeq = static_cast<uint8_t>(i);
        p.payload = {static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8),
                     0, 0};
        const auto enc = route::encode(p);
        stream.insert(stream.end(), enc.begin(), enc.end());
    }
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
        route::Decoder d;
        std::vector<uint16_t> seqs;
        seqs.reserve(packets);
        Stopwatch sw;
        for (const uint8_t b : stream)
            if (d.feed(b))
                seqs.push_back(d.packet().seq);
        ns.push_back(sw.wall() / packets * 1e9);
        if (seqs.size() != static_cast<size_t>(packets))
            return fail("decoder dropped or invented packets");
        for (int i = 0; i < packets; ++i)
            if (seqs[static_cast<size_t>(i)] != static_cast<uint16_t>(i))
                return fail("decoder reordered packets");
    }
    return measured(median(ns));
}

KernelResult
tableBuildMs()
{
    constexpr int w = 8, h = 8, n = w * h;
    const route::Topology topo = route::Topology::torus(w, h);
    auto hops = [](int a, int b) {
        const int dx = std::abs(a % w - b % w);
        const int dy = std::abs(a / w - b / w);
        return std::min(dx, w - dx) + std::min(dy, h - dy);
    };
    std::vector<double> ms;
    for (int rep = 0; rep < kReps; ++rep) {
        std::vector<route::RouteTable> tables;
        tables.reserve(n);
        Stopwatch sw;
        for (int s = 0; s < n; ++s)
            tables.emplace_back(topo, s);
        ms.push_back(sw.wall() * 1e3);
        // every first choice is a shortest-path step
        for (int s = 0; s < n; ++s)
            for (int d = 0; d < n; ++d) {
                if (d == s)
                    continue;
                const auto &pref = tables[static_cast<size_t>(s)].prefs(d);
                if (pref.empty() ||
                    hops(tables[static_cast<size_t>(s)].neighborAt(pref[0]),
                         d) != hops(s, d) - 1)
                    return fail("route table's first choice is not a "
                                "shortest path");
            }
    }
    return measured(median(ms));
}

KernelResult
compileMs(const std::vector<std::string> &programs)
{
    if (programs.empty())
        return fail("no programs to compile");
    net::Network net;
    const int node = net.addTransputer();
    auto &t = net.node(node);
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
        size_t bytes = 0;
        Stopwatch sw;
        for (const std::string &p : programs)
            bytes += occam::compile(p, t.shape(), t.memory().memStart())
                         .image.bytes.size();
        ms.push_back(sw.wall() * 1e3);
        if (bytes == 0)
            return fail("occam::compile produced empty images");
    }
    return measured(median(ms));
}

TierRates
tierRates()
{
    constexpr uint64_t n = 300'000;
    struct Tier
    {
        bool predecode, blockc;
        std::vector<double> mips;
        uint64_t instructions = 0, cycles = 0;
    };
    Tier tiers[3] = {{false, false, {}}, {true, false, {}}, {true, true, {}}};
    TierRates r;
    for (int rep = 0; rep < 3; ++rep)
        for (Tier &t : tiers) {
            core::Config cfg;
            cfg.predecode = t.predecode;
            cfg.blockCompile = t.blockc;
            E7Rig rig(cfg, n);
            Stopwatch sw;
            rig.run();
            const double secs = sw.wall();
            const auto &cpu = rig.net.node(0);
            t.mips.push_back(static_cast<double>(cpu.instructions()) /
                             secs / 1e6);
            t.instructions = cpu.instructions();
            t.cycles = cpu.cycles();
            if (t.instructions != rig.expect.instructions ||
                t.cycles != rig.expect.cycles) {
                r.ok = false;
                r.why = "e7 loop: counts differ from the closed form";
            }
        }
    if (tiers[0].instructions != tiers[1].instructions ||
        tiers[0].instructions != tiers[2].instructions ||
        tiers[0].cycles != tiers[1].cycles ||
        tiers[0].cycles != tiers[2].cycles) {
        r.ok = false;
        r.why = "e7 loop: tiers retire different counts";
    }
    r.plainMips = median(tiers[0].mips);
    r.fusedMips = median(tiers[1].mips);
    r.blockcMips = median(tiers[2].mips);
    return r;
}

} // namespace perfbench
