/**
 * @file
 * Ablation: the instruction partitioner's design choices (Section
 * 4.1).  Compares Dominant Sequence Clustering against no clustering
 * (every node its own cluster), and greedy-swap placement against
 * arbitrary placement and simulated annealing, on the
 * parallelism-rich benchmarks.
 */

#include <cstdio>

#include "harness/cli.hpp"
#include "harness/harness.hpp"

namespace {

using namespace raw;

int64_t
cycles_with(const BenchmarkProgram &prog, int n, ClusterMode cm,
            PlaceMode pm)
{
    CompilerOptions opts;
    opts.orch.partition.cluster_mode = cm;
    opts.orch.partition.place_mode = pm;
    RunResult r =
        run_rawcc(prog.source, MachineConfig::base(n),
                  prog.check_array, opts);
    return r.cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    raw::cli::Args args(
        "bench_ablation_partition",
        "usage: bench_ablation_partition\n"
        "  prints the partitioner ablation; takes no flags\n",
        argc, argv);
    while (args.next())
        args.unknown();
    std::printf("Ablation: partitioner (16 tiles), cycles\n");
    std::printf("%-14s %-12s %-12s %-12s %-12s\n", "Benchmark",
                "DSC+greedy", "unit+greedy", "DSC+arbitrary",
                "DSC+anneal");
    for (const char *name : {"fpppp-kernel", "jacobi", "mxm"}) {
        const BenchmarkProgram &prog = benchmark(name);
        int64_t dsc = cycles_with(prog, 16, ClusterMode::kDSC,
                                  PlaceMode::kGreedySwap);
        int64_t unit = cycles_with(prog, 16, ClusterMode::kUnitNodes,
                                   PlaceMode::kGreedySwap);
        int64_t arb = cycles_with(prog, 16, ClusterMode::kDSC,
                                  PlaceMode::kArbitrary);
        int64_t ann = cycles_with(prog, 16, ClusterMode::kDSC,
                                  PlaceMode::kAnneal);
        std::printf("%-14s %-12lld %-12lld %-12lld %-12lld\n", name,
                    static_cast<long long>(dsc),
                    static_cast<long long>(unit),
                    static_cast<long long>(arb),
                    static_cast<long long>(ann));
    }
    return 0;
}
