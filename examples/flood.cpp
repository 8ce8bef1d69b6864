/**
 * @file
 * The flood/reduce workload standalone: a w x h transputer array
 * spans a tree from the corner, the host injects wave keys, every
 * node contributes 1 and the totals reduce back to the root -- so
 * each wave must report exactly w*h.  The topology size is a command
 * line flag, which is how tools/check.sh drives the same binary
 * from a 32x32 smoke test up to 100k-node runs.
 *
 * Usage: flood [width] [height] [threads] [waves]
 *   width, height  array dimensions       (default 32 x 32)
 *   threads        parallel shards; 1 = serial engine (default 1)
 *   waves          flood waves to run     (default 2)
 */

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "apps/flood.hh"

using namespace transputer;

int
main(int argc, char **argv)
{
    apps::FloodConfig cfg;
    if (argc > 1)
        cfg.width = std::atoi(argv[1]);
    if (argc > 2)
        cfg.height = std::atoi(argv[2]);
    int threads = argc > 3 ? std::atoi(argv[3]) : 1;
    const int waves = argc > 4 ? std::atoi(argv[4]) : 2;
    if (cfg.width < 2 || cfg.height < 2 || threads < 1 || waves < 1) {
        std::cerr << "usage: flood [width>=2] [height>=2] "
                     "[threads>=1] [waves>=1]\n";
        return 2;
    }

    const auto t0 = std::chrono::steady_clock::now();
    apps::Flood flood(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    std::cout << "array: " << cfg.width << " x " << cfg.height << " = "
              << flood.expectedCount() << " transputers, built in "
              << std::chrono::duration<double>(t1 - t0).count()
              << " s\n";

    bool ok = true;
    for (int wv = 0; wv < waves; ++wv) {
        const size_t before = flood.answers().size();
        const Tick start = flood.network().queue().now();
        flood.inject(static_cast<Word>(wv + 1));
        if (threads == 1) {
            flood.runUntilAnswers(before + 1);
        } else {
            net::RunOptions opts;
            opts.threads = threads;
            flood.network().run(start + 60'000'000'000, opts);
        }
        if (flood.answers().size() <= before) {
            std::cerr << "wave " << wv << ": no answer\n";
            return 1;
        }
        const auto &ans = flood.answers().back();
        std::cout << "wave " << wv << ": reached " << ans.count
                  << " nodes (expected " << flood.expectedCount()
                  << "), " << (ans.when - start) / 1000.0 << " us\n";
        ok = ok && ans.count == flood.expectedCount();
    }

    std::cout << (ok ? "\nflood OK\n" : "\nflood FAILED\n");
    return ok ? 0 : 1;
}
