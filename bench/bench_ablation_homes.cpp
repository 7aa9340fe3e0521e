/**
 * @file
 * Ablation: scalar home assignment.  The paper's data partitioner
 * assigns home tiles round-robin and notes that "a more intelligent
 * algorithm would consider data usage pattern as well" (Section 3.3).
 * This bench compares the round-robin policy against the usage-aware
 * two-phase assignment (compile, observe producer/consumer tiles,
 * recompile with voted homes).
 */

#include <cstdio>

#include "harness/cli.hpp"
#include "harness/harness.hpp"

int
main(int argc, char **argv)
{
    raw::cli::Args args(
        "bench_ablation_homes",
        "usage: bench_ablation_homes\n"
        "  prints the scalar-home ablation; takes no flags\n",
        argc, argv);
    while (args.next())
        args.unknown();
    using namespace raw;
    std::printf("Ablation: scalar home assignment (16 tiles), "
                "cycles\n");
    std::printf("%-14s %-14s %-14s %-8s\n", "Benchmark",
                "round-robin", "usage-aware", "gain");
    for (const char *name :
         {"fpppp-kernel", "tomcatv", "jacobi", "cholesky"}) {
        const BenchmarkProgram &prog = benchmark(name);
        CompilerOptions rr;
        CompilerOptions smart;
        smart.smart_homes = true;
        RunResult a = run_rawcc(prog.source, MachineConfig::base(16),
                                prog.check_array, rr);
        RunResult b = run_rawcc(prog.source, MachineConfig::base(16),
                                prog.check_array, smart);
        if (a.check_words != b.check_words)
            std::printf("%-14s RESULT MISMATCH\n", name);
        std::printf("%-14s %-14lld %-14lld %+.1f%%\n", name,
                    static_cast<long long>(a.cycles),
                    static_cast<long long>(b.cycles),
                    100.0 * (static_cast<double>(a.cycles) -
                             static_cast<double>(b.cycles)) /
                        static_cast<double>(a.cycles));
    }
    std::printf("\nFinding: on this suite the gain is ~0%% — loop "
                "counters are control-replicated\nand remaining "
                "stitch traffic schedules off the critical path, so "
                "the paper's\nround-robin policy is adequate here.\n");
    return 0;
}
