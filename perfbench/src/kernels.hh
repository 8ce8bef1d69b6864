/**
 * @file
 * Per-layer microkernels: each one times calls into a single public
 * function of one layer, on inputs sized like the workload whose
 * end-to-end metric that layer should move, and checks its own
 * result.  They run only in the traced run.
 */

#ifndef PERFBENCH_KERNELS_HH
#define PERFBENCH_KERNELS_HH

#include <string>
#include <vector>

#include "measure.hh"

namespace perfbench
{

/** A kernel's figure, or the reason its self-check failed. */
struct KernelResult
{
    double value = 0;
    bool ok = true;
    std::string why; ///< set when !ok
};

/** sim::EventQueue::schedule + runOne of one callback event, ns, with
 *  a pending backlog like the flood and routed queues hold. */
KernelResult scheduleDispatchNs();

/** sim::EventQueue::nextTimeFor on a queue holding the dbsearch 16x8
 *  topology and pending depth, ns per call. */
KernelResult nextTimeForNs();

/** isa::opDefined over every operation slot, ns per call. */
KernelResult opDefinedNs();

/** Host ns per byte of a two-node link stream through net::Network;
 *  checks the simulated rate against 10 Mbit/s / 11 bit-times. */
KernelResult linkHostNsPerByte();

/** par::Barrier::arriveAndWait, 2 parties, us per round. */
KernelResult barrierRoundUs();

/** route::Decoder::feed over encoded one-word packets, ns/packet. */
KernelResult decodeNsPerPacket();

/** route::RouteTable for every node of the 8x8 torus, ms. */
KernelResult tableBuildMs();

/** occam::compile of the given node programs, ms. */
KernelResult compileMs(const std::vector<std::string> &programs);

/** Instruction rate of one execution tier on the e7 loop. */
struct TierRates
{
    double plainMips = 0;
    double fusedMips = 0;
    double blockcMips = 0;
    bool ok = true;
    std::string why;
};

/** The e7 loop on each tier selected through core::Config; checks
 *  that instructions and cycles agree across tiers and with the
 *  loop's closed form. */
TierRates tierRates();

} // namespace perfbench

#endif // PERFBENCH_KERNELS_HH
