/**
 * @file
 * Wall-clock tracker for the toolchain itself: how fast do we
 * compile and simulate the Table 3 sweep?  Writes BENCH_wallclock.json
 * (override with --json-out) with simulated cycles per host second,
 * compile milliseconds per phase, and placement swaps per second —
 * the perf trajectory of the infrastructure, as opposed to
 * BENCH_table3.json which tracks the *simulated* machine.
 *
 * Flags: --jobs N fans the (benchmark × size) runs over N worker
 * threads (0 = one per core; the PGO sweep, whose points run
 * sequentially, instead fans each compile's per-block phases over
 * N); --tiny runs a single small config so CI can
 * smoke-test the harness in well under a second (ctest label
 * perf-smoke); --pgo-sweep adds the compile-throughput scenario (a
 * PGO portfolio over compile-heavy points, timed with the schedule
 * cache off / cold / warm — the "pgo_sweep" JSON section records the
 * warm speedup); --scaling adds the large-mesh scenario (the full
 * suite at 16/32/64/128 tiles, each point simulated under the
 * reference, threaded and region cores with a cycle-equality assert
 * — the "scaling" JSON section records per-mesh cycles/s for all
 * three cores plus per-run speedup over the same benchmark's 1-tile
 * cycles; always run serially for honest per-core timings);
 * --json-out PATH overrides the output path.
 *
 * Results (cycle counts, prints) are bit-identical at any --jobs
 * value and any cache state; only the wall-clock figures vary
 * between hosts and runs.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/harness.hpp"
#include "harness/parallel.hpp"
#include "rawcc/schedcache.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

const int kSizes[] = {1, 2, 4, 8, 16, 32};

/** Which execution core(s) the sweep times. */
enum class BackendMode { kReference, kThreaded, kRegion, kBoth };

/** One (benchmark, machine size) timing. */
struct RunTiming
{
    std::string name;
    int tiles = 0;
    int64_t cycles = 0;
    int64_t placement_swaps = 0;
    raw::PhaseTimings compile;
    double sim_ms = 0;          ///< selected backend (reference in both-mode)
    double sim_ms_threaded = 0; ///< threaded core (both-mode only)
    double sim_ms_region = 0;   ///< region-compiled core (both-mode only)
};

RunTiming
time_one(const raw::BenchmarkProgram &prog, int tiles,
         BackendMode mode)
{
    RunTiming rt;
    rt.name = prog.name;
    rt.tiles = tiles;
    raw::CompileOutput out = raw::compile_source(
        prog.source, raw::MachineConfig::base(tiles));
    rt.compile = out.stats.timings;
    rt.placement_swaps = out.stats.placement_swaps;
    raw::SimBackend primary = raw::SimBackend::kReference;
    if (mode == BackendMode::kThreaded)
        primary = raw::SimBackend::kThreaded;
    else if (mode == BackendMode::kRegion)
        primary = raw::SimBackend::kRegion;
    Clock::time_point t0 = Clock::now();
    raw::Simulator sim(out.program, {}, {}, primary);
    raw::SimResult r = sim.run();
    rt.sim_ms = ms_since(t0);
    rt.cycles = r.cycles;
    if (mode == BackendMode::kBoth) {
        auto rerun = [&](raw::SimBackend backend, double &ms) {
            Clock::time_point t1 = Clock::now();
            raw::Simulator sim2(out.program, {}, {}, backend);
            raw::SimResult r2 = sim2.run();
            ms = ms_since(t1);
            if (r2.cycles != r.cycles) {
                std::fprintf(stderr,
                             "%s n=%d: backend cycle mismatch "
                             "(reference %lld, %s %lld)\n",
                             prog.name.c_str(), tiles,
                             static_cast<long long>(r.cycles),
                             raw::sim_backend_name(backend),
                             static_cast<long long>(r2.cycles));
                std::exit(1);
            }
        };
        rerun(raw::SimBackend::kThreaded, rt.sim_ms_threaded);
        rerun(raw::SimBackend::kRegion, rt.sim_ms_region);
    }
    return rt;
}

/**
 * Large-mesh scaling scenario: the full suite at 16/32/64/128 tiles
 * (past Table 3's 32-tile ceiling), each point compiled once, cold
 * (the in-memory schedule cache is cleared first, so every mesh's
 * compile_ms is a full compile), and simulated under all three cores
 * with a cycle-equality assert.  A 1-tile simulation per benchmark
 * supplies the speedup baseline.  Always runs serially so each core's
 * cycles/s is an honest single-thread figure.
 */
struct ScalePoint
{
    std::string name;
    int tiles = 0;
    int64_t cycles = 0;
    int64_t base_cycles = 0; ///< same benchmark at 1 tile
    double compile_ms = 0;
    /** IR size and the compile phases that grow with the mesh. */
    int64_t ir_instrs = 0;
    double partition_ms = 0, schedule_ms = 0, link_ms = 0;
    double ref_ms = 0, thr_ms = 0, reg_ms = 0;
};

std::vector<ScalePoint>
run_scaling(bool tiny)
{
    const int meshes[] = {16, 32, 64, 128};
    std::vector<ScalePoint> pts;
    for (const raw::BenchmarkProgram &prog : raw::benchmark_suite()) {
        if (tiny && prog.name != "jacobi")
            continue;
        // 1-tile baseline cycles (cycle count is core-independent;
        // use the threaded core, it is the cheapest way to get it).
        raw::CompileOutput base = raw::compile_source(
            prog.source, raw::MachineConfig::base(1));
        raw::Simulator bsim(base.program, {}, {},
                            raw::SimBackend::kThreaded);
        int64_t base_cycles = bsim.run().cycles;
        for (int n : meshes) {
            if (tiny && n > 64)
                continue;
            ScalePoint p;
            p.name = prog.name;
            p.tiles = n;
            p.base_cycles = base_cycles;
            raw::SchedCache::instance().clear_memory();
            Clock::time_point tc = Clock::now();
            raw::CompileOutput out = raw::compile_source(
                prog.source, raw::MachineConfig::base(n));
            p.compile_ms = ms_since(tc);
            p.ir_instrs = out.stats.ir_instrs;
            p.partition_ms = out.stats.orch_partition_ms;
            p.schedule_ms = out.stats.orch_schedule_ms;
            p.link_ms = out.stats.timings.link_ms;
            auto run_core = [&](raw::SimBackend backend, double &ms) {
                Clock::time_point t0 = Clock::now();
                raw::Simulator sim(out.program, {}, {}, backend);
                raw::SimResult r = sim.run();
                ms = ms_since(t0);
                return r.cycles;
            };
            p.cycles = run_core(raw::SimBackend::kReference, p.ref_ms);
            int64_t ct =
                run_core(raw::SimBackend::kThreaded, p.thr_ms);
            int64_t cr = run_core(raw::SimBackend::kRegion, p.reg_ms);
            if (ct != p.cycles || cr != p.cycles) {
                std::fprintf(
                    stderr,
                    "scaling %s n=%d: backend cycle mismatch "
                    "(reference %lld, threaded %lld, region %lld)\n",
                    p.name.c_str(), n,
                    static_cast<long long>(p.cycles),
                    static_cast<long long>(ct),
                    static_cast<long long>(cr));
                std::exit(1);
            }
            std::printf("  scaling %-14s n=%-4d %9lld cycles  "
                        "(%.2fx vs n=1)  compile %8.1f ms  "
                        "sim ref %7.1f / thr %7.1f / reg %7.1f ms\n",
                        p.name.c_str(), n,
                        static_cast<long long>(p.cycles),
                        p.cycles > 0 ? static_cast<double>(base_cycles) /
                                           static_cast<double>(p.cycles)
                                     : 0,
                        p.compile_ms, p.ref_ms, p.thr_ms, p.reg_ms);
            std::fflush(stdout);
            pts.push_back(p);
        }
    }
    return pts;
}

/**
 * Compile-throughput scenario: the same PGO portfolio compile (the
 * most compile-intensive thing the driver does — every candidate is
 * a full compile plus a fault-free simulation) over compile-heavy
 * points, timed three ways: schedule cache off (the pre-cache
 * baseline), cache on but cold, and cache warm.  The picked programs
 * must be cycle-identical in all three modes.
 */
struct PgoSweep
{
    bool ran = false;
    std::vector<std::string> names;
    std::vector<int64_t> cycles;
    double baseline_ms = 0;
    double cold_ms = 0;
    double warm_ms = 0;
    raw::SchedCacheCounters warm_cache;
};

PgoSweep
run_pgo_sweep(bool tiny, int jobs)
{
    // Points where a PGO race is actually worth running: compile
    // cost dominated by orchestration (partition + schedule), i.e.
    // the work the cache reuses.  cholesky n=8 is deliberately
    // absent — its unroll emits ~680k static instructions for an
    // 8-tile machine, so candidate compiles there are bound by code
    // emission and linking, which no schedule cache can share.
    std::vector<std::pair<const char *, int>> points;
    if (tiny) {
        points = {{"jacobi", 4}};
    } else {
        points = {{"fpppp-kernel", 8},
                  {"cholesky", 16},
                  {"cholesky", 32},
                  {"fpppp-kernel", 16},
                  {"fpppp-kernel", 32}};
    }

    PgoSweep sw;
    sw.ran = true;
    for (auto [name, tiles] : points)
        sw.names.push_back(std::string(name) + "_n" +
                           std::to_string(tiles));

    auto sweep = [&](bool cache, const char *mode,
                     raw::SchedCacheCounters *ctr) {
        Clock::time_point t0 = Clock::now();
        std::vector<int64_t> cycles;
        for (auto [name, tiles] : points) {
            Clock::time_point tp = Clock::now();
            const raw::BenchmarkProgram &prog = raw::benchmark(name);
            raw::CompilerOptions opts;
            opts.pgo = true;
            opts.orch.use_cache = cache;
            opts.orch.jobs = jobs;
            raw::CompileOutput out = raw::compile_source(
                prog.source, raw::MachineConfig::base(tiles), opts);
            double compile_ms = ms_since(tp);
            raw::Simulator sim(out.program);
            cycles.push_back(sim.run().cycles);
            if (ctr)
                ctr->add(out.stats.cache);
            std::printf("  pgo %-14s n=%-3d %9.1f ms "
                        "(compile %.1f, verify-sim %.1f) (%s)\n",
                        name, tiles, ms_since(tp), compile_ms,
                        ms_since(tp) - compile_ms, mode);
            std::fflush(stdout);
        }
        return std::make_pair(ms_since(t0), cycles);
    };

    raw::SchedCache::instance().clear_memory();
    auto [base_ms, base_cycles] = sweep(false, "baseline", nullptr);
    raw::SchedCache::instance().clear_memory();
    auto [cold_ms, cold_cycles] = sweep(true, "cold", nullptr);
    raw::SchedCacheCounters after_cold =
        raw::SchedCache::instance().totals();
    std::fprintf(stderr,
                 "pgo sweep: cache %lld bytes, %lld hit / %lld miss "
                 "after cold\n",
                 static_cast<long long>(
                     raw::SchedCache::instance().memory_bytes()),
                 static_cast<long long>(after_cold.hits()),
                 static_cast<long long>(after_cold.misses()));
    auto [warm_ms, warm_cycles] = sweep(true, "warm", &sw.warm_cache);
    raw::SchedCacheCounters after_warm =
        raw::SchedCache::instance().totals();
    std::fprintf(stderr,
                 "pgo sweep: %lld hit / %lld miss in warm pass\n",
                 static_cast<long long>(after_warm.hits() -
                                        after_cold.hits()),
                 static_cast<long long>(after_warm.misses() -
                                        after_cold.misses()));

    if (base_cycles != cold_cycles || base_cycles != warm_cycles) {
        std::fprintf(stderr,
                     "pgo sweep: cycles differ across cache modes\n");
        std::exit(1);
    }
    sw.cycles = base_cycles;
    sw.baseline_ms = base_ms;
    sw.cold_ms = cold_ms;
    sw.warm_ms = warm_ms;
    return sw;
}

/** cycles / (ms/1e3), 0 when the denominator is zero (never inf/nan). */
double
per_sec(int64_t count, double ms)
{
    return ms > 0 ? static_cast<double>(count) / (ms / 1e3) : 0;
}

void
write_json(const std::string &path, const std::vector<RunTiming> &runs,
           int jobs, double wall_ms, const PgoSweep &pgo,
           const std::vector<ScalePoint> &scaling, BackendMode mode)
{
    raw::PhaseTimings sum;
    int64_t cycles = 0, swaps = 0;
    double sim_ms = 0, sim_ms_threaded = 0, sim_ms_region = 0;
    for (const RunTiming &rt : runs) {
        sum.parse_ms += rt.compile.parse_ms;
        sum.unroll_ms += rt.compile.unroll_ms;
        sum.lower_ms += rt.compile.lower_ms;
        sum.transform_ms += rt.compile.transform_ms;
        sum.orchestrate_ms += rt.compile.orchestrate_ms;
        sum.link_ms += rt.compile.link_ms;
        sum.total_ms += rt.compile.total_ms;
        cycles += rt.cycles;
        swaps += rt.placement_swaps;
        sim_ms += rt.sim_ms;
        sim_ms_threaded += rt.sim_ms_threaded;
        sim_ms_region += rt.sim_ms_region;
    }
    double cycles_per_sec = per_sec(cycles, sim_ms);
    double swaps_per_sec = per_sec(swaps, sum.orchestrate_ms);

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        std::exit(1);
    }
    char buf[512];
    out << "{\n  \"table\": \"wallclock\",\n";
    out << "  \"jobs\": " << jobs << ",\n";
    std::snprintf(buf, sizeof(buf), "  \"sweep_wall_ms\": %.1f,\n",
                  wall_ms);
    out << buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"compile_ms\": {\"parse\": %.1f, \"unroll\": %.1f, "
        "\"lower\": %.1f, \"transform\": %.1f, \"orchestrate\": %.1f, "
        "\"link\": %.1f, \"total\": %.1f},\n",
        sum.parse_ms, sum.unroll_ms, sum.lower_ms, sum.transform_ms,
        sum.orchestrate_ms, sum.link_ms, sum.total_ms);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"sim\": {\"cycles\": %lld, \"wall_ms\": %.1f, "
                  "\"cycles_per_sec\": %.0f},\n",
                  static_cast<long long>(cycles), sim_ms,
                  cycles_per_sec);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"placement\": {\"swaps\": %lld, "
                  "\"swaps_per_sec\": %.0f},\n",
                  static_cast<long long>(swaps), swaps_per_sec);
    out << buf;
    if (mode == BackendMode::kBoth) {
        double ref_cps = per_sec(cycles, sim_ms);
        double thr_cps = per_sec(cycles, sim_ms_threaded);
        double reg_cps = per_sec(cycles, sim_ms_region);
        std::snprintf(
            buf, sizeof(buf),
            "  \"sim_backend\": {\"reference_cps\": %.0f, "
            "\"threaded_cps\": %.0f, \"region_cps\": %.0f, "
            "\"speedup\": %.2f, \"speedup_region\": %.2f, "
            "\"cycles_identical\": true},\n",
            ref_cps, thr_cps, reg_cps,
            ref_cps > 0 ? thr_cps / ref_cps : 0,
            ref_cps > 0 ? reg_cps / ref_cps : 0);
        out << buf;
    }
    if (!scaling.empty()) {
        // Per-mesh aggregate cycles/s for each core, then the raw
        // per-run rows (speedup is vs the same benchmark at 1 tile).
        out << "  \"scaling\": {\"mesh\": [";
        bool first = true;
        for (int n : {16, 32, 64, 128}) {
            int64_t c = 0;
            double rms = 0, tms = 0, gms = 0;
            for (const ScalePoint &p : scaling)
                if (p.tiles == n) {
                    c += p.cycles;
                    rms += p.ref_ms;
                    tms += p.thr_ms;
                    gms += p.reg_ms;
                }
            if (c == 0)
                continue;
            double ref_cps = per_sec(c, rms);
            double reg_cps = per_sec(c, gms);
            std::snprintf(
                buf, sizeof(buf),
                "%s\n    {\"tiles\": %d, \"cycles\": %lld, "
                "\"reference_cps\": %.0f, \"threaded_cps\": %.0f, "
                "\"region_cps\": %.0f, \"region_vs_reference\": %.2f}",
                first ? "" : ",", n, static_cast<long long>(c),
                ref_cps, per_sec(c, tms), reg_cps,
                ref_cps > 0 ? reg_cps / ref_cps : 0);
            out << buf;
            first = false;
        }
        out << "],\n   \"runs\": [";
        for (size_t i = 0; i < scaling.size(); i++) {
            const ScalePoint &p = scaling[i];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n    {\"name\": \"%s\", \"tiles\": %d, "
                "\"cycles\": %lld, \"speedup_vs_1\": %.2f, "
                "\"compile_ms\": %.1f, \"sim_ms_reference\": %.1f, "
                "\"sim_ms_threaded\": %.1f, \"sim_ms_region\": %.1f, "
                "\"ir_instrs\": %lld, \"partition_ms\": %.1f, "
                "\"schedule_ms\": %.1f, \"link_ms\": %.1f}",
                i ? "," : "", p.name.c_str(), p.tiles,
                static_cast<long long>(p.cycles),
                p.cycles > 0 ? static_cast<double>(p.base_cycles) /
                                   static_cast<double>(p.cycles)
                             : 0,
                p.compile_ms, p.ref_ms, p.thr_ms, p.reg_ms,
                static_cast<long long>(p.ir_instrs), p.partition_ms,
                p.schedule_ms, p.link_ms);
            out << buf;
        }
        out << "],\n   \"cycles_identical\": true},\n";
    }
    if (pgo.ran) {
        std::snprintf(
            buf, sizeof(buf),
            "  \"pgo_sweep\": {\"baseline_ms\": %.1f, "
            "\"cold_ms\": %.1f, \"warm_ms\": %.1f,\n",
            pgo.baseline_ms, pgo.cold_ms, pgo.warm_ms);
        out << buf;
        std::snprintf(
            buf, sizeof(buf),
            "    \"speedup_cold\": %.2f, \"speedup_warm\": %.2f, "
            "\"cycles_identical\": true,\n",
            pgo.cold_ms > 0 ? pgo.baseline_ms / pgo.cold_ms : 0,
            pgo.warm_ms > 0 ? pgo.baseline_ms / pgo.warm_ms : 0);
        out << buf;
        std::snprintf(
            buf, sizeof(buf),
            "    \"warm_cache\": {\"hits\": %lld, \"misses\": %lld},\n",
            static_cast<long long>(pgo.warm_cache.hits()),
            static_cast<long long>(pgo.warm_cache.misses()));
        out << buf;
        out << "    \"points\": [";
        for (size_t i = 0; i < pgo.names.size(); i++) {
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"name\": \"%s\", \"cycles\": %lld}",
                i ? ", " : "", pgo.names[i].c_str(),
                static_cast<long long>(pgo.cycles[i]));
            out << buf;
        }
        out << "]},\n";
    }
    out << "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); i++) {
        const RunTiming &rt = runs[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"name\": \"%s\", \"tiles\": %d, \"cycles\": %lld, "
            "\"compile_ms\": %.1f, \"sim_ms\": %.1f}%s\n",
            rt.name.c_str(), rt.tiles,
            static_cast<long long>(rt.cycles), rt.compile.total_ms,
            rt.sim_ms, i + 1 < runs.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

const char kUsage[] =
    "usage: bench_wallclock [--jobs N] [--sim-backend "
    "reference|threaded|region|both]\n"
    "                       [--tiny] [--pgo-sweep] [--scaling] "
    "[--json-out PATH]\n";

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out = "BENCH_wallclock.json";
    int jobs = 1;
    bool tiny = false;
    bool pgo_sweep = false;
    bool scaling = false;
    BackendMode mode = BackendMode::kReference;
    raw::cli::Args args("bench_wallclock", kUsage, argc, argv);
    while (args.next()) {
        if (args.is("--json-out"))
            json_out = args.value();
        else if (args.is("--jobs"))
            jobs = raw::resolve_jobs(static_cast<int>(
                raw::cli::parse_long_in("bench_wallclock", args.value(),
                                        "--jobs", 0, 4096,
                                        "a worker count in 0..4096")));
        else if (args.is("--sim-backend")) {
            std::string b = args.value();
            if (b == "reference")
                mode = BackendMode::kReference;
            else if (b == "threaded")
                mode = BackendMode::kThreaded;
            else if (b == "region")
                mode = BackendMode::kRegion;
            else if (b == "both")
                mode = BackendMode::kBoth;
            else
                raw::cli::bad_value("bench_wallclock", "--sim-backend",
                                    b.c_str(),
                                    "reference, threaded, region or "
                                    "both");
        } else if (args.is("--tiny"))
            tiny = true;
        else if (args.is("--pgo-sweep"))
            pgo_sweep = true;
        else if (args.is("--scaling"))
            scaling = true;
        else
            args.unknown();
    }

    std::vector<std::pair<const raw::BenchmarkProgram *, int>> points;
    if (tiny) {
        points.emplace_back(&raw::benchmark("jacobi"), 4);
    } else {
        for (const raw::BenchmarkProgram &prog :
             raw::benchmark_suite())
            for (int n : kSizes)
                points.emplace_back(&prog, n);
    }

    std::vector<RunTiming> runs(points.size());
    Clock::time_point t0 = Clock::now();
    raw::run_parallel(static_cast<int>(points.size()), jobs,
                      [&](int i) {
                          runs[i] = time_one(*points[i].first,
                                             points[i].second, mode);
                      });
    double wall_ms = ms_since(t0);

    std::printf("%zu runs in %.1f ms (jobs=%d)\n", runs.size(),
                wall_ms, jobs);
    for (const RunTiming &rt : runs)
        std::printf(
            "  %-14s n=%-3d compile %8.1f ms  sim %8.1f ms  "
            "(%lld cycles)\n",
            rt.name.c_str(), rt.tiles, rt.compile.total_ms, rt.sim_ms,
            static_cast<long long>(rt.cycles));

    PgoSweep pgo;
    if (pgo_sweep) {
        pgo = run_pgo_sweep(tiny, jobs);
        std::printf("pgo sweep: baseline %.1f ms, cold %.1f ms, "
                    "warm %.1f ms (%.2fx warm speedup)\n",
                    pgo.baseline_ms, pgo.cold_ms, pgo.warm_ms,
                    pgo.warm_ms > 0 ? pgo.baseline_ms / pgo.warm_ms
                                    : 0);
    }
    std::vector<ScalePoint> scale;
    if (scaling)
        scale = run_scaling(tiny);
    write_json(json_out, runs, jobs, wall_ms, pgo, scale, mode);
    return 0;
}
