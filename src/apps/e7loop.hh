/**
 * @file
 * The section 3.2.1 instruction-mix loop (experiment E7) as assembler
 * source: six copies of a nine-instruction body of loads, stores and
 * adds -- straight-line single-cycle code, the execution tiers' best
 * case -- inside a counted loop.  The timing harness (bench_interp),
 * tprof, tsnap and the snapshot tests all run this one program.
 */

#ifndef TRANSPUTER_APPS_E7LOOP_HH
#define TRANSPUTER_APPS_E7LOOP_HH

#include <cstdint>
#include <string>

namespace transputer::apps
{

/** Assembler source of the E7 loop; entry label `start`, ends in
 *  stopp after `iterations` passes. */
inline std::string
e7LoopSource(int64_t iterations)
{
    std::string body;
    for (int r = 0; r < 6; ++r)
        body += "  ldc 5\n stl 1\n adc 3\n stl 2\n ldc 9\n"
                "  adc 1\n stl 3\n ldlp 4\n stl 4\n";
    return "start:\n"
           "  ldc " + std::to_string(iterations) + "\n stl 30\n"
           "outer:\n" + body +
           "  ldl 30\n adc -1\n stl 30\n"
           "  ldl 30\n cj done\n  j outer\n"
           "done: stopp\n";
}

} // namespace transputer::apps

#endif // TRANSPUTER_APPS_E7LOOP_HH
