#include "checks.hh"

#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

namespace perfbench
{

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint32_t
dbCount(int nodes, int recordsPerNode, int keySpace, uint32_t key)
{
    uint32_t n = 0;
    for (int id = 0; id < nodes; ++id)
        for (int i = 0; i < recordsPerNode; ++i)
            if (static_cast<uint32_t>((id * 31 + i * 7) % keySpace) ==
                key)
                ++n;
    return n;
}

std::vector<uint32_t>
dbQueryKeys(Rng &rng, int n, int nodes, int recordsPerNode, int keySpace)
{
    std::vector<uint32_t> countOf;
    for (int k = 0; k < keySpace; ++k)
        countOf.push_back(dbCount(nodes, recordsPerNode, keySpace,
                                  static_cast<uint32_t>(k)));
    if (std::set<uint32_t>(countOf.begin(), countOf.end()).size() <
        static_cast<size_t>(n))
        throw std::invalid_argument("dbQueryKeys: too few distinct counts");
    std::vector<uint32_t> keys;
    std::set<uint32_t> used;
    while (keys.size() < static_cast<size_t>(n)) {
        const auto key =
            static_cast<uint32_t>(rng.below(static_cast<uint64_t>(keySpace)));
        if (used.insert(countOf[key]).second)
            keys.push_back(key);
    }
    return keys;
}

uint64_t
countMismatches(const std::vector<uint32_t> &expected,
                const std::vector<uint32_t> &got)
{
    uint64_t bad = 0;
    for (size_t i = 0; i < expected.size(); ++i)
        if (i >= got.size() || got[i] != expected[i])
            ++bad;
    return bad;
}

uint64_t
routedWaveFailures(const std::vector<RoutedReply> &wave, int terminals,
                   const std::vector<uint32_t> &keyOf)
{
    std::map<uint32_t, int> replies;
    std::map<uint32_t, bool> wrong;
    bool stray = false;
    for (const RoutedReply &r : wave) {
        if (r.vchan != 0 || r.src < 1 ||
            r.src > static_cast<uint32_t>(terminals)) {
            stray = true;
            continue;
        }
        ++replies[r.src];
        if (r.word != keyOf.at(r.src) + 1)
            wrong[r.src] = true;
    }
    uint64_t failed = 0;
    for (uint32_t t = 1; t <= static_cast<uint32_t>(terminals); ++t) {
        const auto it = replies.find(t);
        if (stray || it == replies.end() || it->second != 1 ||
            wrong.count(t))
            ++failed;
    }
    return failed;
}

namespace
{

/** Cycles of direct function `fn`, or of operation `op` for opr. */
int
cyclesOf(int fn, uint32_t operand, bool cjTaken)
{
    switch (fn) {
      case 0x0: return 3;              // j
      case 0x1: return 1;              // ldlp
      case 0x2: return 1;              // pfix
      case 0x4: return 1;              // ldc
      case 0x6: return 1;              // nfix
      case 0x7: return 2;              // ldl
      case 0x8: return 1;              // adc
      case 0xA: return cjTaken ? 4 : 2; // cj
      case 0xD: return 1;              // stl
      case 0xF:
        if (operand == 0x15)
            return 11;                 // stopp
        break;
    }
    throw std::runtime_error("e7 loop: instruction outside the table");
}

} // namespace

LoopCost
segmentCost(const std::vector<uint8_t> &bytes, bool cjTaken)
{
    LoopCost c;
    uint32_t oreg = 0;
    for (const uint8_t b : bytes) {
        const int fn = b >> 4;
        oreg |= b & 0xFu;
        c.cycles += static_cast<uint64_t>(cyclesOf(fn, oreg, cjTaken));
        ++c.instructions;
        if (fn == 0x2)
            oreg <<= 4;
        else if (fn == 0x6)
            oreg = ~oreg << 4;
        else
            oreg = 0;
    }
    return c;
}

LoopCost
e7ClosedForm(const std::vector<uint8_t> &pre,
             const std::vector<uint8_t> &body,
             const std::vector<uint8_t> &back,
             const std::vector<uint8_t> &tail, uint64_t n)
{
    const LoopCost p = segmentCost(pre, false);
    const LoopCost untaken = segmentCost(body, false);
    const LoopCost taken = segmentCost(body, true);
    const LoopCost j = segmentCost(back, false);
    const LoopCost t = segmentCost(tail, false);
    LoopCost c;
    c.instructions = p.instructions + n * untaken.instructions +
                     (n - 1) * j.instructions + t.instructions;
    c.cycles = p.cycles + (n - 1) * untaken.cycles + taken.cycles +
               (n - 1) * j.cycles + t.cycles;
    return c;
}

bool
linkRateOk(uint64_t bytes, int64_t simNs)
{
    if (simNs <= 0)
        return false;
    const double rate = static_cast<double>(bytes) /
                        (static_cast<double>(simNs) * 1e-9);
    const double protocol = 10e6 / 11.0;
    return std::fabs(rate / protocol - 1.0) < 0.01;
}

} // namespace perfbench
