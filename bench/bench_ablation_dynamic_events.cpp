/**
 * @file
 * Appendix A in action: dynamic events (injected cache-miss latency)
 * stretch execution time but, by the static ordering property, never
 * change results and never deadlock.  Sweeps miss rates and reports
 * cycles; verifies bit-exact results at every point.
 */

#include <cstdio>

#include "harness/cli.hpp"
#include "harness/harness.hpp"

int
main(int argc, char **argv)
{
    raw::cli::Args args(
        "bench_ablation_dynamic_events",
        "usage: bench_ablation_dynamic_events\n"
        "  prints the dynamic-events ablation; takes no flags\n",
        argc, argv);
    while (args.next())
        args.unknown();
    using namespace raw;
    std::printf("Static ordering under dynamic events (16 tiles)\n");
    std::printf("%-14s %-10s %-10s %-10s %-10s\n", "Benchmark",
                "0%%", "2%%", "10%%", "30%%");
    for (const char *name : {"jacobi", "mxm", "life"}) {
        const BenchmarkProgram &prog = benchmark(name);
        CompileOutput out = compile_source(
            prog.source, MachineConfig::base(16), CompilerOptions{});
        std::vector<uint32_t> ref;
        std::printf("%-14s ", name);
        bool ok = true;
        for (double rate : {0.0, 0.02, 0.10, 0.30}) {
            FaultConfig f;
            f.miss_rate = rate;
            f.penalty = 20;
            f.seed = 12345;
            Simulator sim(out.program, f);
            SimResult r = sim.run();
            std::vector<uint32_t> words =
                sim.read_array(prog.check_array);
            if (ref.empty())
                ref = words;
            else if (words != ref)
                ok = false;
            std::printf("%-10lld ", static_cast<long long>(r.cycles));
        }
        std::printf("%s\n", ok ? "results identical"
                               : "RESULT CHANGED (BUG)");
    }
    return 0;
}
