/**
 * @file
 * The benchmark's workloads.  Each builds its inputs from the seed,
 * sets up the emulator through public API (timed as setup_s), then
 * runs whole rounds of the same operations for the requested time,
 * checking every answer.  The traced run adds spans around the
 * layer calls, the per-layer counters and the microkernels.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hh"
#include "measure.hh"
#include "net/network.hh"

namespace perfbench
{

/** How one invocation runs. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its spans (empty: nowhere). */
    std::string traceOut;
    /**
     * Run the CPUs with the predecode cache and the block compiler
     * off (e7_loop and dbsearch_16x8; the other workloads refuse
     * it).  Only the benchmark's sensitivity check sets this: it
     * slows the CPU tiers without changing any answer.
     */
    bool slowCpu = false;
};

/** Run one workload; throws std::invalid_argument on a bad name. */
Outcome runWorkload(const Options &opts);

/** The e7 loop (paper section 3.2.1) on one transputer. */
class E7Rig
{
  public:
    /** Assemble the loop for n iterations and boot it on a one-node
     *  network with the given node configuration. */
    E7Rig(const transputer::core::Config &cfg, uint64_t n);

    /** Run to the loop's stopp. */
    void run();

    transputer::net::Network net;
    /** What the run must retire, from the loop's encoding. */
    LoopCost expect;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
