/**
 * @file
 * The benchmark program:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--slow-cpu]
 *
 * Prints notes, then as its last line one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hh"

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    bool haveWorkload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload") {
                opts.workload = value();
                haveWorkload = true;
            } else if (a == "--seed") {
                opts.seed = std::stoull(value());
            } else if (a == "--seconds") {
                opts.seconds = std::stod(value());
            } else if (a == "--trace") {
                opts.trace = std::stoi(value()) != 0;
            } else if (a == "--trace-out") {
                opts.traceOut = value();
            } else if (a == "--slow-cpu") {
                opts.slowCpu = true;
            } else {
                throw std::invalid_argument("unknown argument " + a);
            }
        }
        if (!haveWorkload)
            throw std::invalid_argument("--workload is required");
        const perfbench::Outcome o = perfbench::runWorkload(opts);
        for (const std::string &n : o.notes)
            std::printf("# %s\n", n.c_str());
        std::printf("%s\n", perfbench::resultJson(o).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
