/**
 * @file
 * Answer checks that do not trust the emulator's own expected
 * values: each one recomputes the answer from the workload's
 * definition (the record rule, the array size, the loop's encoding,
 * the paper's cycle table, the link protocol).
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <vector>

namespace perfbench
{

/** Deterministic generator for workload inputs (splitmix64). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t s_;
};

/**
 * Matches for `key` over a search array of `nodes` nodes, recomputed
 * from the record rule: record i of node id holds
 * (id*31 + i*7) % keySpace.
 */
uint32_t dbCount(int nodes, int recordsPerNode, int keySpace,
                 uint32_t key);

/**
 * n seeded query keys from [0, keySpace) whose counts (dbCount) are
 * pairwise distinct, so each answer tells which query it belongs to.
 * Throws std::invalid_argument when the key space has fewer than n
 * distinct counts.
 */
std::vector<uint32_t> dbQueryKeys(Rng &rng, int n, int nodes,
                                  int recordsPerNode, int keySpace);

/** Wrong or missing answers among got[i] (expected[i]).  A missing
 *  answer (got shorter than expected) counts as failed. */
uint64_t countMismatches(const std::vector<uint32_t> &expected,
                         const std::vector<uint32_t> &got);

/** One tuple the routed root forwarded to the host. */
struct RoutedReply
{
    uint32_t src = 0;
    uint32_t vchan = 0;
    uint32_t word = 0;
};

/**
 * Failed terminal queries of one routed wave over terminals
 * 1..terminals: a terminal fails unless exactly one reply (vchan 0)
 * came from it, carrying keyOf[src] + 1.  An undeliverable notice
 * (vchan 255) or any tuple naming no terminal fails every terminal of
 * the wave, each counted once, so the result never exceeds
 * `terminals`.
 */
uint64_t routedWaveFailures(const std::vector<RoutedReply> &wave,
                            int terminals,
                            const std::vector<uint32_t> &keyOf);

/** Instruction and cycle counts of one run of the e7 loop. */
struct LoopCost
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
};

/**
 * Cost of one byte-coded instruction stream segment, from the
 * paper's cycle table (section 3.2.1: ldc, stl, adc, ldlp and
 * prefixes 1 cycle, ldl 2; j 3 and cj 2 untaken / 4 taken, stopp 11,
 * from the T414 data sheet the paper cites).  Every byte is one
 * instruction; `cjTaken` says how a cj in the segment resolves.
 * Throws std::runtime_error on a function the table lacks.
 */
LoopCost segmentCost(const std::vector<uint8_t> &bytes, bool cjTaken);

/**
 * Closed form of the e7 loop's cost: `pre` runs once, `body` (ending
 * in the loop's cj) runs n times, untaken n-1 times and taken once,
 * `back` (the j to the loop head) runs n-1 times and `tail` once.
 */
LoopCost e7ClosedForm(const std::vector<uint8_t> &pre,
                      const std::vector<uint8_t> &body,
                      const std::vector<uint8_t> &back,
                      const std::vector<uint8_t> &tail, uint64_t n);

/**
 * True when `bytes` crossing a link in `simNs` simulated nanoseconds
 * run within 1% of the protocol rate: 10 Mbit/s over 11 bit-times a
 * byte, 0.909 MB/s.
 */
bool linkRateOk(uint64_t bytes, int64_t simNs);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
