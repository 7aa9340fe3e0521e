/**
 * @file
 * Figure 8 reproduction: fpppp-kernel speedup under three machine
 * configurations —
 *   base:    32 registers/tile, Table 1 latencies;
 *   inf-reg: unlimited registers per tile (upper bound without
 *            register-spill pressure);
 *   1-cycle: every instruction takes one cycle (lowers the
 *            computation/communication ratio, so this curve is a
 *            lower bound on scaling).
 *
 * Speedups are normalized to each configuration's own one-tile
 * sequential baseline, exactly as the paper does (its base/inf-reg
 * baseline is 7478 cycles and its 1-cycle baseline is 3998).
 */

#include <cstdio>
#include <functional>

#include "harness/cli.hpp"
#include "harness/harness.hpp"

namespace {

using namespace raw;

using ConfigFn = std::function<MachineConfig(int)>;

void
run_config(const char *name, const ConfigFn &cfg,
           const std::string &src, const ConfigFn &baseline_cfg)
{
    // The paper normalizes base and inf-reg against the same 32-reg
    // sequential baseline (7478 cycles there); only 1-cycle gets its
    // own (3998).
    CompileOutput base_out = compile_baseline_for(src, baseline_cfg(1));
    Simulator base_sim(base_out.program);
    int64_t base_cycles = base_sim.run().cycles;
    std::printf("%-8s baseline %lld cycles:", name,
                static_cast<long long>(base_cycles));
    for (int n : {1, 2, 4, 8, 16, 32}) {
        CompilerOptions opts;
        CompileOutput out = compile_source(src, cfg(n), opts);
        Simulator sim(out.program);
        int64_t cycles = sim.run().cycles;
        std::printf("  %.2f", static_cast<double>(base_cycles) /
                                  static_cast<double>(cycles));
        std::fflush(stdout);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    raw::cli::Args args(
        "bench_fig8_fpppp_configs",
        "usage: bench_fig8_fpppp_configs\n"
        "  prints Figure 8 (fpppp-kernel configurations); takes no flags\n",
        argc, argv);
    while (args.next())
        args.unknown();
    const std::string &src = benchmark("fpppp-kernel").source;
    std::printf("Figure 8: fpppp-kernel speedup under machine "
                "configurations\n");
    std::printf("%-8s %-24s  N=1   N=2   N=4   N=8   N=16  N=32\n",
                "config", "");
    auto base = [](int n) { return MachineConfig::base(n); };
    auto inf_reg = [](int n) { return MachineConfig::inf_reg(n); };
    auto one_cycle = [](int n) { return MachineConfig::one_cycle(n); };
    run_config("base", base, src, base);
    run_config("inf-reg", inf_reg, src, base);
    run_config("1-cycle", one_cycle, src, one_cycle);
    std::printf("\npaper:   base  0.5/0.9/1.9/4.0/8.1/13.7 ; inf-reg "
                "higher at every point ;\n"
                "         1-cycle lower (13.7 vs 6.2 at 32 tiles) but "
                "still scaling to 32.\n");
    return 0;
}
