/**
 * @file
 * golden_gen — record golden simulator outputs for the determinism
 * suite (tests/test_golden_determinism.cpp).
 *
 * For a fixed set of (benchmark, machine size, compiler flags, fault
 * config) points this writes one text file per point into the
 * directory given as the last argument, capturing everything the
 * simulator promises to keep bit-identical across performance work:
 * the cycle count, the aggregate instruction/route/stall counters,
 * the per-category profile sums (which must also sum to cycles on
 * every tile), the issue histogram, and the full print trace.
 *
 * Modes:
 *   golden_gen <dir>            write every golden (fresh record)
 *   golden_gen --update <dir>   regenerate: re-runs every point with
 *       the runtime self-checker armed (provenance + FIFO bounds,
 *       which must stay silent), rewrites the files, and prints a
 *       cycle-delta table (old -> new per golden) so an intentional
 *       semantic change documents exactly what moved.
 *
 * The points are raw::golden_points() (harness/harness.hpp).  The
 * committed files under tests/goldens/ were generated from the
 * pre-optimization (PR 1) simulator; the *_sched points record the
 * schedule-quality optimizer (--sched-iters 3 --route-select).
 * Regenerate only when semantics intentionally change, never for
 * performance work.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "harness/cli.hpp"
#include "harness/harness.hpp"
#include "sim/profile.hpp"

namespace {

/** Cycle count recorded in an existing golden file, or -1. */
long long
recorded_cycles(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return -1;
    std::string key;
    long long v;
    while (in >> key) {
        if (key == "cycles" && in >> v)
            return v;
        in.ignore(1 << 20, '\n');
    }
    return -1;
}

constexpr const char *kUsage =
    "usage: golden_gen [--update] <output-dir>\n"
    "  write one golden per point into <output-dir>; --update re-runs\n"
    "  each point with the self-checker armed and prints a cycle-delta\n"
    "  table against the goldens already there\n";

} // namespace

int
main(int argc, char **argv)
{
    bool update = false;
    const char *dir_arg = nullptr;
    raw::cli::Args args("golden_gen", kUsage, argc, argv);
    while (args.next()) {
        if (args.is("--update"))
            update = true;
        else if (args.flag()[0] == '-')
            args.unknown();
        else if (dir_arg) {
            std::fprintf(stderr,
                         "golden_gen: unexpected argument '%s'\n%s",
                         args.flag(), kUsage);
            return 2;
        } else
            dir_arg = args.flag();
    }
    if (!dir_arg) {
        std::fprintf(stderr, "golden_gen: missing <output-dir>\n%s",
                     kUsage);
        return 2;
    }
    const std::string dir = dir_arg;

    if (update)
        std::printf("%-26s %12s %12s %8s\n", "golden", "old", "new",
                    "delta");
    for (const raw::GoldenPoint &p : raw::golden_points()) {
        const raw::BenchmarkProgram &prog = raw::benchmark(p.bench);
        const std::string file = p.name() + ".golden";
        raw::CompilerOptions opts = p.options();
        raw::RunResult r =
            raw::run_rawcc(prog.source,
                           raw::MachineConfig::base(p.tiles),
                           prog.check_array, opts, p.faults);
        const raw::SimResult &s = r.sim;
        if (update) {
            // Re-run with the runtime self-checker armed: a golden
            // must never record an execution the checker rejects.
            raw::CheckConfig checks;
            checks.provenance = true;
            checks.fifo_bounds = true;
            raw::RunResult checked =
                raw::run_rawcc(prog.source,
                               raw::MachineConfig::base(p.tiles),
                               prog.check_array, opts, p.faults,
                               checks);
            if (!checked.sim.check_failures.empty()) {
                std::fprintf(stderr,
                             "%s: %zu self-check failures, not "
                             "recording\n",
                             file.c_str(),
                             checked.sim.check_failures.size());
                return 1;
            }
        }
        std::string path = dir + "/" + file;
        long long old_cycles = update ? recorded_cycles(path) : -1;
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        out << raw::golden_summary(p.bench, p.tiles, p.faults, s);
        if (update) {
            long long nw = static_cast<long long>(s.cycles);
            if (old_cycles < 0)
                std::printf("%-26s %12s %12lld %8s\n",
                            file.c_str(), "(new)", nw,
                            "-");
            else
                std::printf("%-26s %12lld %12lld %+8lld\n",
                            file.c_str(), old_cycles, nw,
                            nw - old_cycles);
        } else {
            std::printf("wrote %s (cycles %lld)\n", path.c_str(),
                        static_cast<long long>(s.cycles));
        }
    }
    return 0;
}
