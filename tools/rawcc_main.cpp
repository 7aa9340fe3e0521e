/**
 * @file
 * rawcc — command-line driver for the Raw compiler and simulator.
 *
 * Usage:
 *   rawcc [options] <file.rawc | benchmark-name>
 *
 * Options:
 *   --tiles N          machine size (default 4)
 *   --config C         base | inf-reg | 1-cycle      (default base)
 *   --baseline         compile sequentially instead of with RAWCC
 *   --dump-ir          print the IR after renaming
 *   --disasm           print the per-tile / per-switch streams
 *   --stats            print compile statistics (incl. stage timings)
 *   --no-run           compile only
 *   --speedup          also run the sequential baseline and report
 *   --profile          print the per-tile cycle-attribution table
 *   --trace-out F      write a Chrome trace-event JSON to F
 *   --miss-rate R      inject cache misses with probability R (0..1)
 *   --miss-penalty P   extra cycles per miss (default 20)
 *   --seed S           fault-injection seed
 *   --route-stall-rate R    hold a retiring switch with prob. R
 *   --route-stall-cycles P  extra switch occupancy per hold
 *   --dyn-delay-rate R      delay a dynamic message with prob. R
 *   --dyn-delay-cycles P    extra cycles per delayed message
 *   --jitter-rate R         a tile loses its cycle with prob. R
 *   --check            enable runtime self-checks (provenance + FIFO
 *                      bounds); failures are reported and exit 1
 *   --fault-campaign N sweep N fault points (seeds x channels x
 *                      intensities) and verify bit-identical results
 *   --campaign-out F   campaign JSON report path
 *   --point-timeout MS wall-clock budget per campaign point; a point
 *                      over budget reports a structured "timeout"
 *                      outcome instead of stalling the sweep
 *   --jobs N           worker threads (0 = all cores): campaign
 *                      points, and per-block compile phases
 *   --no-sched-cache   disable the in-memory block-schedule cache
 *   --no-unroll        disable affine staticization (ablation)
 *   --no-replication   broadcast every branch (ablation)
 *   --no-port-fold     keep explicit send/receive instructions
 *   --sched-iters N    slack-driven rescheduling passes (default 0)
 *   --route-select     contention-aware XY/YX route selection
 *   --sim-backend B    execution core: reference | threaded | region
 *   --sim-diff         run both backends, require identical results
 *   --pgo              profile-guided placement (compile, simulate,
 *                      recompile around the measured congestion)
 *   --list-benchmarks  list the built-in Table 2 programs
 *   --help, -h         print the usage summary to stdout
 *
 * The input is a rawc source file, or the name of a built-in
 * benchmark (life, vpenta, cholesky, tomcatv, fpppp-kernel, mxm,
 * jacobi).  An unknown flag, a flag missing its value or a bad value,
 * and a second input all exit 2 before anything is compiled.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/campaign.hpp"
#include "harness/cli.hpp"
#include "harness/harness.hpp"
#include "harness/parallel.hpp"
#include "ir/printer.hpp"
#include "serve/server.hpp"
#include "sim/disasm.hpp"
#include "sim/profile.hpp"

namespace {

const char kUsage[] =
    "usage: rawcc [options] <file.rawc | benchmark>\n"
    "  --tiles N --config base|inf-reg|1-cycle --baseline\n"
    "  --dump-ir --disasm --stats --no-run --speedup\n"
    "  --profile --trace-out FILE\n"
    "  --miss-rate R --miss-penalty P --seed S\n"
    "  --route-stall-rate R --route-stall-cycles P\n"
    "  --dyn-delay-rate R --dyn-delay-cycles P --jitter-rate R\n"
    "  --check --fault-campaign N --campaign-out FILE\n"
    "  --point-timeout MS --jobs N\n"
    "  --no-sched-cache --no-unroll --no-replication --no-port-fold\n"
    "  --sched-iters N --route-select --pgo\n"
    "  --sim-backend reference|threaded|region --sim-diff\n"
    "  --list-benchmarks --help\n";

/** Compile-throughput report: stage timings + schedule-cache traffic. */
void
print_compile_timing(const raw::CompileStats &st)
{
    const raw::PhaseTimings &tm = st.timings;
    std::printf("compile stages (ms): parse %.2f, unroll "
                "%.2f, lower %.2f, transform %.2f, "
                "orchestrate %.2f, link %.2f (total %.2f)\n",
                tm.parse_ms, tm.unroll_ms, tm.lower_ms,
                tm.transform_ms, tm.orchestrate_ms, tm.link_ms,
                tm.total_ms);
    std::printf("orchestrate phases:  partition %.2f ms, "
                "schedule %.2f ms\n",
                st.orch_partition_ms, st.orch_schedule_ms);
    const raw::SchedCacheCounters &c = st.cache;
    std::printf("sched cache:         %lld hit(s), %lld miss(es) "
                "(part %lld/%lld, sched %lld/%lld)\n",
                static_cast<long long>(c.hits()),
                static_cast<long long>(c.misses()),
                static_cast<long long>(c.part_hits),
                static_cast<long long>(c.part_misses),
                static_cast<long long>(c.sched_hits),
                static_cast<long long>(c.sched_misses));
}

std::string
load_input(const std::string &arg)
{
    for (const raw::BenchmarkProgram &b : raw::benchmark_suite())
        if (b.name == arg)
            return b.source;
    std::ifstream in(arg);
    if (!in)
        raw::fatal("cannot open input: " + arg);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace raw;

    // `rawcc serve ...`: hand the rest of argv to the daemon
    // (src/serve/server.hpp); everything below is the one-shot CLI.
    if (argc >= 2 && std::string(argv[1]) == "serve")
        return serve::serve_main(argc - 1, argv + 1);

    int tiles = 4;
    MachineConfig (*make_machine)(int) = &MachineConfig::base;
    std::string input;
    std::string trace_out;
    bool baseline = false, dump_ir = false, disasm = false;
    bool stats = false, do_run = true, speedup = false;
    bool profile = false;
    CompilerOptions opts;
    FaultConfig faults;
    CheckConfig checks;
    SimBackend sim_backend = SimBackend::kReference;
    bool sim_diff = false;
    int fault_campaign = 0;
    int point_timeout = 0;
    int jobs = 0;
    std::string campaign_out;

    const char *const kTool = "rawcc";
    cli::Args args(kTool, kUsage, argc, argv);
    // NaN-proof: !(v in [0,1]) rejects NaN, which every
    // comparison-based range check silently accepts.
    auto parse_rate = [&](const char *flag) {
        const char *s = args.value();
        double v = cli::parse_double(kTool, s, flag);
        if (!(v >= 0.0 && v <= 1.0))
            cli::bad_value(kTool, flag, s, "a probability in [0,1]");
        return v;
    };
    auto parse_int_in = [&](const char *flag, long lo, long hi,
                            const char *want) {
        return static_cast<int>(
            cli::parse_long_in(kTool, args.value(), flag, lo, hi, want));
    };
    auto parse_cycles = [&](const char *flag) {
        return parse_int_in(flag, 0, 1000000,
                            "a cycle count in 0..1000000");
    };
    while (args.next()) {
        if (args.is("--tiles"))
            tiles = static_cast<int>(
                cli::parse_tiles(kTool, args.value(), "--tiles"));
        else if (args.is("--config")) {
            std::string c = args.value();
            if (c == "base")
                make_machine = &MachineConfig::base;
            else if (c == "inf-reg")
                make_machine = &MachineConfig::inf_reg;
            else if (c == "1-cycle")
                make_machine = &MachineConfig::one_cycle;
            else
                cli::bad_value(kTool, "--config", c.c_str(),
                               "base, inf-reg or 1-cycle");
        } else if (args.is("--baseline"))
            baseline = true;
        else if (args.is("--dump-ir"))
            dump_ir = true;
        else if (args.is("--disasm"))
            disasm = true;
        else if (args.is("--stats"))
            stats = true;
        else if (args.is("--no-run"))
            do_run = false;
        else if (args.is("--speedup"))
            speedup = true;
        else if (args.is("--profile"))
            profile = true;
        else if (args.is("--trace-out"))
            trace_out = args.value();
        else if (args.is("--miss-rate"))
            faults.miss_rate = parse_rate("--miss-rate");
        else if (args.is("--miss-penalty"))
            faults.penalty = parse_cycles("--miss-penalty");
        else if (args.is("--seed"))
            faults.seed = cli::parse_u64(kTool, args.value(), "--seed");
        else if (args.is("--route-stall-rate"))
            faults.route_stall_rate = parse_rate("--route-stall-rate");
        else if (args.is("--route-stall-cycles"))
            faults.route_stall_cycles =
                parse_cycles("--route-stall-cycles");
        else if (args.is("--dyn-delay-rate"))
            faults.dyn_delay_rate = parse_rate("--dyn-delay-rate");
        else if (args.is("--dyn-delay-cycles"))
            faults.dyn_delay_cycles = parse_cycles("--dyn-delay-cycles");
        else if (args.is("--jitter-rate"))
            faults.jitter_rate = parse_rate("--jitter-rate");
        else if (args.is("--check")) {
            checks.provenance = true;
            checks.fifo_bounds = true;
        } else if (args.is("--fault-campaign"))
            fault_campaign = parse_int_in("--fault-campaign", 1, 100000,
                                          "a point count in 1..100000");
        else if (args.is("--campaign-out"))
            campaign_out = args.value();
        else if (args.is("--point-timeout"))
            point_timeout =
                parse_int_in("--point-timeout", 1, 86400000,
                             "a budget in milliseconds (1..86400000)");
        else if (args.is("--jobs")) {
            jobs = parse_int_in("--jobs", 0, 4096,
                                "a worker count in 0..4096");
            opts.orch.jobs = jobs;
        } else if (args.is("--no-sched-cache"))
            opts.orch.use_cache = false;
        else if (args.is("--sched-iters"))
            opts.orch.sched.sched_iters = parse_int_in(
                "--sched-iters", 0, 16, "a pass count in 0..16");
        else if (args.is("--route-select"))
            opts.orch.sched.route_select = true;
        else if (args.is("--sim-backend")) {
            std::string b = args.value();
            if (b == "reference")
                sim_backend = SimBackend::kReference;
            else if (b == "threaded")
                sim_backend = SimBackend::kThreaded;
            else if (b == "region")
                sim_backend = SimBackend::kRegion;
            else
                cli::bad_value(kTool, "--sim-backend", b.c_str(),
                               "reference, threaded or region");
        } else if (args.is("--sim-diff"))
            sim_diff = true;
        else if (args.is("--pgo"))
            opts.pgo = true;
        else if (args.is("--no-unroll"))
            opts.unroll.enable = false;
        else if (args.is("--no-replication"))
            opts.orch.enable_replication = false;
        else if (args.is("--no-port-fold"))
            opts.orch.fold_ports = false;
        else if (args.is("--list-benchmarks")) {
            for (const BenchmarkProgram &b : benchmark_suite())
                std::printf("%-14s %s\n", b.name.c_str(),
                            b.description.c_str());
            return 0;
        } else if (args.flag()[0] == '-')
            args.unknown();
        else if (!input.empty()) {
            std::fprintf(stderr,
                         "rawcc: more than one input ('%s' and '%s')\n%s",
                         input.c_str(), args.flag(), kUsage);
            return 2;
        } else
            input = args.flag();
    }
    if (input.empty()) {
        std::fputs(kUsage, stderr);
        return 2;
    }

    try {
        std::string src = load_input(input);
        MachineConfig machine = make_machine(tiles);

        if (fault_campaign > 0) {
            // Campaign mode: the input must name a built-in
            // benchmark; benchmark() rejects anything else.
            CampaignReport rep = run_fault_campaign(
                input, machine, fault_campaign, faults.seed, jobs, opts,
                point_timeout);
            std::printf("%s\n", rep.summary().c_str());
            std::string path =
                campaign_out.empty()
                    ? "campaign_" + input + "_n" +
                          std::to_string(tiles) + ".json"
                    : campaign_out;
            std::ofstream js(path);
            if (!js)
                fatal("cannot write campaign report: " + path);
            js << rep.to_json();
            std::printf("campaign report written to %s\n",
                        path.c_str());
            return rep.clean() ? 0 : 1;
        }

        CompileOutput out =
            baseline ? compile_baseline_for(src, make_machine(1))
                     : compile_source(src, machine, opts);

        if (dump_ir)
            std::printf("%s\n", print_function(out.fn).c_str());
        if (disasm)
            std::printf("%s\n",
                        disasm_program(out.program).c_str());
        if (stats) {
            std::printf("machine:             %s\n",
                        out.program.machine.name().c_str());
            std::printf("IR instructions:     %lld\n",
                        static_cast<long long>(out.stats.ir_instrs));
            std::printf("machine instrs:      %lld\n",
                        static_cast<long long>(
                            out.stats.static_instrs));
            std::printf("loops u/p:           %d/%d of %d\n",
                        out.stats.unroll.loops_unrolled,
                        out.stats.unroll.loops_peeled,
                        out.stats.unroll.loops_seen);
            std::printf("dynamic refs:        %d\n",
                        out.stats.dynamic_refs);
            std::printf("branches repl/bcast: %d/%d\n",
                        out.stats.replicated_branches,
                        out.stats.broadcast_branches);
            std::printf("spill ops:           %lld\n",
                        static_cast<long long>(out.stats.spill_ops));
            std::printf("folded port ops:     %d\n",
                        out.stats.folded_port_ops);
            print_compile_timing(out.stats);
        }
        if (!do_run)
            return 0;

        SimResult r;
        if (sim_diff) {
            r = diff_sim_backends(out.program, faults, checks,
                                  !trace_out.empty());
            std::printf("[sim-diff: reference, threaded and region "
                        "backends identical]\n");
        } else {
            Simulator sim(out.program, faults, checks, sim_backend);
            if (!trace_out.empty())
                sim.set_trace_enabled(true);
            r = sim.run();
        }
        std::fputs(r.print_text().c_str(), stdout);
        std::printf("[%lld cycles, %lld instrs, %lld words routed, "
                    "%lld dynamic msgs]\n",
                    static_cast<long long>(r.cycles),
                    static_cast<long long>(r.instrs_executed),
                    static_cast<long long>(r.words_routed),
                    static_cast<long long>(r.dyn_messages));
        if (checks.enabled()) {
            std::printf("[self-check: %lld failure(s), provenance "
                        "hash 0x%llx]\n",
                        static_cast<long long>(
                            r.check_failure_count),
                        static_cast<unsigned long long>(
                            r.prov_hash));
            for (const CheckFailure &f : r.check_failures)
                std::fprintf(stderr, "rawcc: self-check: %s\n",
                             f.to_string().c_str());
            if (r.check_failure_count > 0)
                return 1;
        }

        if (profile) {
            std::fputs(
                format_profile(r, out.stats.estimated_makespan())
                    .c_str(),
                stdout);
            if (!stats) // --stats already printed these
                print_compile_timing(out.stats);
        }
        if (!trace_out.empty()) {
            write_chrome_trace(trace_out, r.profile);
            std::printf("trace written to %s\n", trace_out.c_str());
        }

        if (speedup && !baseline) {
            RunResult base = run_baseline(src);
            std::printf("baseline: %lld cycles -> speedup %.2f\n",
                        static_cast<long long>(base.cycles),
                        static_cast<double>(base.cycles) /
                            static_cast<double>(r.cycles));
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rawcc: %s\n", e.what());
        return 1;
    }
}
