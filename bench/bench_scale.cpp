/**
 * @file
 * Scale-out benchmark: how many transputers one host can simulate.
 *
 * Workload: the flood/reduce array (src/apps/flood.hh) -- the host
 * injects a wave at the corner, every node forwards it down the
 * spanning tree and the totals reduce back, so a run is correct
 * exactly when the root reports w*h.  The measured phase covers node
 * program start-up plus one complete wave under the shard-parallel
 * engine (settle = false): that is the regime the epoch windows and
 * the compact node state target, a sea of mostly-idle nodes with a
 * travelling active front.
 *
 * Two result groups, written to BENCH_scale.json:
 *  - weak scaling: 1k / 10k / 100k nodes under the epoch-window
 *    engine with the compact node configuration (nodes/sec/core);
 *  - bytes/node: mean and max Transputer::footprintBytes() after the
 *    run, plus the cost of a node that never executed at all.
 * The run passes when every wave reduces exactly and an idle node
 * stays within 1 KiB.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "apps/flood.hh"
#include "par/parallel_engine.hh"

#include "util.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int kThreads = 4;
constexpr Tick kLimit = 60'000'000'000; // generous; runs quiesce

struct Result
{
    std::string label;
    int width, height;
    double build_s;   // construct + compile + boot
    double run_s;     // start-up + one wave, parallel engine
    uint64_t rounds;
    uint64_t barriers;
    uint64_t epochs;
    size_t bytesMean; // footprintBytes() per node after the run
    size_t bytesMax;
    bool ok;          // the wave reduced to exactly width*height

    int nodes() const { return width * height; }
    double
    nodesPerSecPerCore(unsigned cores) const
    {
        const double used =
            std::max(1u, std::min<unsigned>(kThreads, cores));
        return nodes() / run_s / used;
    }
};

Result
runOnce(const std::string &label, int w, int h,
        const core::Config &node)
{
    apps::FloodConfig cfg;
    cfg.width = w;
    cfg.height = h;
    cfg.settle = false;
    cfg.node = node;

    Result r{};
    r.label = label;
    r.width = w;
    r.height = h;

    const auto t0 = std::chrono::steady_clock::now();
    apps::Flood flood(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    flood.inject(1);
    net::RunOptions opts;
    opts.threads = kThreads;
    opts.partition = net::Partition::Contiguous;
    par::RunStats stats;
    par::runParallel(flood.network(), kLimit, opts, &stats);
    const auto t2 = std::chrono::steady_clock::now();

    r.build_s = std::chrono::duration<double>(t1 - t0).count();
    r.run_s = std::chrono::duration<double>(t2 - t1).count();
    r.rounds = stats.rounds;
    r.barriers = stats.barriers;
    for (const auto &s : stats.shards)
        r.epochs += s.epochs;
    r.ok = flood.answers().size() == 1 &&
           flood.answers().back().count == flood.expectedCount();

    size_t sum = 0, most = 0;
    net::Network &net = flood.network();
    for (size_t i = 0; i < net.size(); ++i) {
        const size_t b = net.node(static_cast<int>(i)).footprintBytes();
        sum += b;
        most = std::max(most, b);
    }
    r.bytesMean = sum / net.size();
    r.bytesMax = most;
    return r;
}

/** footprintBytes() of a node that was wired but never booted: the
 *  true cost of an idle transputer in a big array. */
size_t
idleNodeBytes()
{
    net::Network net;
    net::buildGrid(net, 8, 8, apps::FloodConfig::scaleNodeConfig());
    size_t most = 0;
    for (size_t i = 0; i < net.size(); ++i)
        most = std::max(most,
                        net.node(static_cast<int>(i)).footprintBytes());
    return most;
}

void
emitRun(JsonWriter &json, const Result &r, unsigned cores)
{
    json.beginObject()
        .field("label", r.label)
        .field("nodes", r.nodes())
        .field("width", r.width)
        .field("height", r.height)
        .field("build_s", r.build_s)
        .field("run_s", r.run_s)
        .field("nodes_per_sec_per_core", r.nodesPerSecPerCore(cores))
        .field("rounds", r.rounds)
        .field("barriers", r.barriers)
        .field("epochs", r.epochs)
        .field("bytes_per_node_mean", r.bytesMean)
        .field("bytes_per_node_max", r.bytesMax)
        .field("ok", r.ok)
        .end();
}

} // namespace

int
main(int argc, char **argv)
{
    // --quick: skip the 100k point (tools/check.sh smoke mode)
    const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
    const unsigned cores = std::thread::hardware_concurrency();
    heading("scale-out: flood/reduce waves, " +
            std::to_string(kThreads) + " shards");
    std::cout << "host hardware_concurrency: " << cores << "\n\n";

    // weak scaling under the epoch-window engine + compact state
    const core::Config compact = apps::FloodConfig::scaleNodeConfig();
    std::vector<Result> scaling;
    scaling.push_back(runOnce("1k", 32, 32, compact));
    scaling.push_back(runOnce("10k", 100, 100, compact));
    if (!quick)
        scaling.push_back(runOnce("100k", 320, 313, compact));

    const size_t idle = idleNodeBytes();

    Table t({10, 10, 12, 12, 10, 12, 12, 12});
    t.row("run", "nodes", "build (s)", "run (s)", "rounds",
          "nodes/s/core", "B/node mean", "ok");
    t.rule();
    for (const auto &r : scaling)
        t.row(r.label, r.nodes(), r.build_s, r.run_s, r.rounds,
              r.nodesPerSecPerCore(cores), r.bytesMean,
              r.ok ? "yes" : "NO");
    t.rule();
    std::cout << "\nidle (never-executed) node: " << idle
              << " bytes of side structures\n";

    bool ok = idle <= 1024;
    for (const auto &r : scaling)
        ok = ok && r.ok;

    std::ofstream out("BENCH_scale.json");
    JsonWriter json(out, 2);
    json.beginObject()
        .field("workload", "flood_reduce")
        .field("threads", kThreads)
        .field("hardware_concurrency", cores)
        .field("idle_bytes_per_node", idle)
        .key("weak_scaling")
        .beginArray();
    for (const auto &r : scaling)
        emitRun(json, r, cores);
    json.end().field("pass", ok).end();
    std::cout << "wrote BENCH_scale.json\n";
    return ok ? 0 : 1;
}
