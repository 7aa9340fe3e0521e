/**
 * @file
 * The compile workloads (suite16, mesh_large): cold in-process
 * compile_source + threaded Simulator::run of each point, verified
 * against the 1-tile baseline.  The traced run instead calls each
 * layer's public functions in the order compile_source does, wrapped
 * in spans, and checks that this outside decomposition produces the
 * same program as compile_source.
 */

#include <algorithm>
#include <random>

#include "bench.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "frontend/unroll.hpp"
#include "harness/harness.hpp"
#include "ir/verifier.hpp"
#include "rawcc/linker.hpp"
#include "rawcc/portfold.hpp"
#include "rawcc/schedcache.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"
#include "transform/simplify.hpp"
#include "transform/split.hpp"
#include "transform/strength.hpp"

namespace perfbench {

namespace {

/**
 * Baseline fills are repeated until this much time has gone (and at
 * least kMinSetups times); setup_s is their median.  A fill takes
 * 0.1-0.25 s, short enough for host noise to swing single samples.
 */
constexpr double kSetupSeconds = 2.0;
constexpr int kMinSetups = 5;

/** Everything a run of one point must reproduce exactly. */
struct Exact
{
    int64_t cycles = 0, instrs = 0, words = 0, dyn = 0, stalls = 0;
    int64_t static_instrs = 0;
    uint64_t prov = 0;
    std::string prints;
    std::vector<uint32_t> check;

    bool operator==(const Exact &) const = default;
};

/** One point of one pass. */
struct PointRun
{
    double compile_ms = 0, sim_ms = 0;
    Exact ex;
};

Exact
observe(const raw::Simulator &sim, const raw::SimResult &r,
        const raw::CompiledProgram &prog, const std::string &check_array)
{
    Exact e;
    e.cycles = r.cycles;
    e.instrs = r.instrs_executed;
    e.words = r.words_routed;
    e.dyn = r.dyn_messages;
    e.stalls = r.proc_stall_cycles;
    e.static_instrs = prog.static_instrs();
    e.prov = r.prov_hash;
    e.prints = r.print_text();
    if (!check_array.empty() && prog.find_array(check_array) >= 0)
        e.check = sim.read_array(check_array);
    return e;
}

raw::MachineConfig
machine_of(const Point &pt)
{
    return pt.machine == "one_cycle" ? raw::MachineConfig::one_cycle(pt.tiles)
                                     : raw::MachineConfig::base(pt.tiles);
}

raw::CompilerOptions
options_of(const Point &pt)
{
    raw::CompilerOptions opts;
    opts.orch.sched.route_select = pt.route_select;
    return opts;
}

/**
 * The check verified_speedup makes, on the threaded core: the check
 * array and the print trace must equal the 1-tile baseline's, and
 * the committed cycle count (where there is one) must repeat.  Every
 * mismatch goes to out.errors; returns whether there was none.
 */
bool
check_point(const Point &pt, const Exact &ex,
            const std::map<std::string, int64_t> &committed, Outcome &out)
{
    const raw::RunResult &base =
        raw::cached_baseline(raw::benchmark(pt.prog));
    bool ok = true;
    auto fail = [&](const std::string &what) {
        out.errors.push_back(pt.label() + ": " + what);
        ok = false;
    };
    if (ex.check != base.check_words)
        fail("check array differs from the 1-tile baseline");
    if (ex.prints != base.prints)
        fail("print trace differs from the 1-tile baseline");
    auto c = committed.find(pt.label());
    if (pt.plain() && c != committed.end() && ex.cycles != c->second)
        fail("cycles " + std::to_string(ex.cycles) + " != committed " +
             std::to_string(c->second));
    return ok;
}

/** One attempted point; one failure however many checks broke. */
void
verify_point(const Point &pt, const Exact &ex,
             const std::map<std::string, int64_t> &committed,
             Outcome &out)
{
    out.attempted++;
    if (!check_point(pt, ex, committed, out))
        out.failed++;
}

PointRun
run_point(const Point &pt)
{
    const raw::BenchmarkProgram &bp = raw::benchmark(pt.prog);
    PointRun pr;
    raw::SchedCache::instance().clear_memory();
    Clock::time_point t0 = Clock::now();
    raw::CompileOutput co =
        raw::compile_source(bp.source, machine_of(pt), options_of(pt));
    Clock::time_point t1 = Clock::now();
    raw::Simulator sim(co.program, {}, {}, raw::SimBackend::kThreaded);
    raw::SimResult r = sim.run();
    Clock::time_point t2 = Clock::now();
    pr.ex = observe(sim, r, co.program, bp.check_array);
    pr.compile_ms = ms_between(t0, t1);
    pr.sim_ms = ms_between(t1, t2);
    return pr;
}

/** Distinct programs of @p pts. */
std::vector<std::string>
programs_of(const std::vector<Point> &pts)
{
    std::vector<std::string> v;
    for (const Point &p : pts)
        if (std::find(v.begin(), v.end(), p.prog) == v.end())
            v.push_back(p.prog);
    return v;
}

/**
 * Set-up: fill the baseline cache (cached_baseline), then time more
 * uncached baseline runs of the same programs (kSetupSeconds, at
 * least kMinSetups fills in all), each required to reproduce the
 * cached result exactly.  Returns the fill times in seconds.
 */
std::vector<double>
setup_baselines(const std::vector<std::string> &progs, Outcome &out)
{
    std::vector<double> secs;
    Clock::time_point start = Clock::now();
    for (const std::string &p : progs)
        raw::cached_baseline(raw::benchmark(p));
    secs.push_back(seconds_since(start));
    while (static_cast<int>(secs.size()) < kMinSetups ||
           seconds_since(start) < kSetupSeconds) {
        Clock::time_point t0 = Clock::now();
        for (const std::string &p : progs) {
            const raw::BenchmarkProgram &bp = raw::benchmark(p);
            raw::RunResult r = raw::run_baseline(bp.source, bp.check_array);
            const raw::RunResult &c = raw::cached_baseline(bp);
            out.check(r.cycles == c.cycles && r.prints == c.prints &&
                          r.check_words == c.check_words,
                      p + ": baseline run does not repeat");
        }
        secs.push_back(seconds_since(t0));
    }
    return secs;
}

/** Per-point results and layer counters of the traced decomposition. */
struct LayerRun
{
    Exact ex;
    raw::UnrollStats us;
    int64_t ir_lower = 0, ir_transform = 0;
    int64_t dynamic_refs = 0, swaps = 0, est_makespan = 0, spills = 0;
    raw::SchedCacheCounters cache;
    int64_t cache_bytes = 0;
    double partition_ms = 0, schedule_ms = 0;
    double ref_ms = 0, region_ms = 0;
    /** Source to linked program, spans included. */
    double compile_ms = 0;
};

/**
 * Compile @p pt layer by layer, in compile_source's order (see
 * run_frontend, transform_function and orchestrate_and_link in
 * src/rawcc/compiler.cpp), with a span around each call; then
 * simulate on the threaded core.  With @p full, also verify: the
 * baseline check, diff_sim_backends across all cores, and a timed
 * run on the reference and region cores.
 */
LayerRun
traced_point(const Point &pt, Tracer &tr, int64_t req, bool full,
             const std::map<std::string, int64_t> &committed,
             Outcome &out)
{
    using Span = Tracer::Span;
    const raw::BenchmarkProgram &bp = raw::benchmark(pt.prog);
    raw::MachineConfig machine = machine_of(pt);
    raw::CompilerOptions opts = options_of(pt);
    LayerRun lr;
    raw::SchedCache::instance().clear_memory();

    Span prog_span(tr, "program", req);
    Clock::time_point c0 = Clock::now();
    machine.validate();
    raw::Program ast;
    {
        Span s(tr, "frontend.parse");
        ast = raw::parse_program(bp.source);
    }
    {
        Span s(tr, "frontend.unroll");
        raw::UnrollOptions uo = opts.unroll;
        uo.n_tiles = machine.n_tiles;
        lr.us = raw::unroll_program(ast, uo);
    }
    raw::Function fn;
    {
        Span s(tr, "frontend.lower");
        fn = raw::lower_program(ast);
        raw::verify_or_panic(fn, "lowering");
    }
    lr.ir_lower = static_cast<int64_t>(fn.num_instrs());
    {
        Span s(tr, "transform");
        raw::verify_or_panic(fn, "input");
        raw::constfold_function(fn);
        while (raw::simplify_cfg(fn))
            raw::constfold_function(fn);
        raw::strength_reduce(fn);
        raw::constfold_function(fn);
        raw::split_large_blocks(fn, opts.max_block_len);
        raw::verify_or_panic(fn, "constfold");
        raw::rename_function(fn);
        raw::verify_or_panic(fn, "rename");
    }
    lr.ir_transform = static_cast<int64_t>(fn.num_instrs());
    raw::VirtualProgram vp;
    {
        Span s(tr, "orchestrate");
        vp = raw::orchestrate(fn, machine, opts.orch);
    }
    lr.cache_bytes = raw::SchedCache::instance().memory_bytes();
    raw::CompiledProgram prog;
    raw::LinkStats ls;
    {
        Span s(tr, "link");
        if (opts.orch.fold_ports)
            raw::fold_port_operands(vp, fn);
        prog = raw::link_program(fn, vp, machine, &ls);
    }
    lr.compile_ms = ms_between(c0, Clock::now());
    lr.dynamic_refs = vp.dynamic_refs;
    lr.swaps = vp.placement_swaps;
    lr.cache = vp.cache;
    lr.partition_ms = vp.partition_phase_ms;
    lr.schedule_ms = vp.schedule_phase_ms;
    lr.spills = ls.spill_ops;
    for (int64_t m : vp.block_makespan)
        lr.est_makespan += m;
    {
        Span s(tr, "sim.threaded");
        raw::Simulator sim(prog, {}, {}, raw::SimBackend::kThreaded);
        raw::SimResult r = sim.run();
        lr.ex = observe(sim, r, prog, bp.check_array);
    }
    if (!full)
        return lr;
    out.attempted++;
    bool ok;
    {
        Span s(tr, "verify");
        ok = check_point(pt, lr.ex, committed, out);
        try {
            raw::diff_sim_backends(prog);
        } catch (const std::exception &e) {
            ok = false;
            out.errors.push_back(pt.label() + ": " + e.what());
        }
    }
    {
        Span s(tr, "cores");
        for (raw::SimBackend b :
             {raw::SimBackend::kReference, raw::SimBackend::kRegion}) {
            Clock::time_point t0 = Clock::now();
            raw::Simulator sim(prog, {}, {}, b);
            raw::SimResult r = sim.run();
            double ms = ms_between(t0, Clock::now());
            (b == raw::SimBackend::kReference ? lr.ref_ms
                                              : lr.region_ms) = ms;
            if (observe(sim, r, prog, bp.check_array) != lr.ex) {
                ok = false;
                out.errors.push_back(pt.label() + ": " +
                                     raw::sim_backend_name(b) +
                                     " core differs from threaded");
            }
        }
    }
    if (!ok)
        out.failed++;
    return lr;
}

std::vector<Point>
shuffled(std::vector<Point> pts, std::mt19937_64 &rng)
{
    std::shuffle(pts.begin(), pts.end(), rng);
    return pts;
}

/** The untraced pipeline: passes until @p seconds have elapsed. */
void
measure_untraced(const Options &o, const std::vector<Point> &own,
                 const std::map<std::string, int64_t> &committed,
                 Outcome &out)
{
    std::vector<double> setup =
        setup_baselines(programs_of(own), out);

    std::mt19937_64 rng(o.seed);
    std::map<std::string, Exact> first;
    std::vector<double> e2e, compile, mcps;
    std::vector<double> cycles, speedups;
    int64_t static_instrs = 0;
    Clock::time_point start = Clock::now();
    do {
        Clock::time_point p0 = Clock::now();
        double csum = 0, ssum = 0, cyc = 0;
        for (const Point &pt : shuffled(own, rng)) {
            PointRun pr = run_point(pt);
            verify_point(pt, pr.ex, committed, out);
            csum += pr.compile_ms;
            ssum += pr.sim_ms;
            cyc += static_cast<double>(pr.ex.cycles);
            auto [it, fresh] = first.emplace(pt.label(), pr.ex);
            out.check(fresh || it->second == pr.ex,
                      pt.label() + ": exact counts differ between passes");
        }
        e2e.push_back(seconds_since(p0));
        compile.push_back(csum / 1e3);
        mcps.push_back(cyc / (ssum / 1e3) / 1e6);
    } while (seconds_since(start) < o.seconds);

    for (const Point &pt : own) {
        const Exact &ex = first.at(pt.label());
        const raw::RunResult &base =
            raw::cached_baseline(raw::benchmark(pt.prog));
        cycles.push_back(static_cast<double>(ex.cycles));
        speedups.push_back(static_cast<double>(base.cycles) /
                           static_cast<double>(ex.cycles));
        static_instrs += ex.static_instrs;
    }
    auto &m = out.metrics;
    m["setup_s"] = median(setup);
    m["e2e_s"] = median(e2e);
    m["compile_s"] = median(compile);
    m["sim_mcps"] = median(mcps);
    m["sim_cycles_geomean"] = geomean(cycles);
    m["speedup_geomean"] = geomean(speedups);
    m["static_instrs"] = static_cast<double>(static_instrs);
}

} // namespace

void
traced_layers(const Options &o, const std::vector<Point> &own,
              const std::map<std::string, int64_t> &committed, Tracer &tr,
              Outcome &out)
{
    std::vector<Point> every = all_points();
    for (const std::string &p : programs_of(every))
        raw::cached_baseline(raw::benchmark(p));
    std::mt19937_64 rng(o.seed);
    std::vector<Point> order = shuffled(own, rng);

    // Untraced passes of the same programs before and after the traced
    // one, for the overhead (the first also pays the process warm-up)
    // and for the decomposition cross-check.
    std::map<std::string, Exact> plain;
    auto untraced_pass = [&]() {
        Clock::time_point t0 = Clock::now();
        for (const Point &pt : order) {
            PointRun pr = run_point(pt);
            verify_point(pt, pr.ex, committed, out);
            auto [it, fresh] = plain.emplace(pt.label(), pr.ex);
            out.check(fresh || it->second == pr.ex,
                      pt.label() + ": exact counts differ between passes");
        }
        return seconds_since(t0);
    };
    double before_s = untraced_pass();

    std::map<std::string, LayerRun> runs;
    {
        Tracer::Span pass(tr, "pass", 0);
        int64_t req = 1;
        for (const Point &pt : order)
            runs[pt.label()] =
                traced_point(pt, tr, req++, true, committed, out);
    }
    double untraced_s = (before_s + untraced_pass()) / 2;
    for (const auto &[label, lr] : runs)
        out.check(lr.ex == plain.at(label),
                  label + ": layer-by-layer compile differs from "
                          "compile_source");

    auto &m = out.metrics;
    double pass_ms = tr.total_ms("pass");
    double excl_ms = pass_ms - tr.total_ms("verify") - tr.total_ms("cores");
    double layers_ms = tr.self_ms_prefix("frontend.") +
                       tr.self_ms("transform") + tr.self_ms("orchestrate") +
                       tr.self_ms("link") + tr.self_ms("sim.threaded");
    m["trace.overhead_frac"] = (excl_ms / 1e3 - untraced_s) / untraced_s;
    m["trace.self_sum_frac"] = layers_ms / excl_ms;
    m["frontend.parse_ms"] = tr.self_ms("frontend.parse");
    m["frontend.unroll_ms"] = tr.self_ms("frontend.unroll");
    m["frontend.lower_ms"] = tr.self_ms("frontend.lower");
    m["transform.ms"] = tr.self_ms("transform");
    m["orchestrate.ms"] = tr.self_ms("orchestrate");
    m["link.ms"] = tr.self_ms("link");

    double seen = 0, unrolled = 0, est = 0, cyc = 0, instrs = 0;
    double part_hits = 0, part_all = 0, sched_hits = 0, sched_all = 0;
    double ref_ms = 0, region_ms = 0;
    for (const auto &[label, lr] : runs) {
        m["frontend.ir_instrs"] += static_cast<double>(lr.ir_lower);
        m["transform.ir_instrs"] += static_cast<double>(lr.ir_transform);
        m["orchestrate.dynamic_refs"] += lr.dynamic_refs;
        m["orchestrate.partition_ms"] += lr.partition_ms;
        m["orchestrate.schedule_ms"] += lr.schedule_ms;
        m["partition.swaps"] += static_cast<double>(lr.swaps);
        m["regalloc.spill_ops"] += static_cast<double>(lr.spills);
        m["link.static_instrs"] += static_cast<double>(lr.ex.static_instrs);
        m["schedcache.bytes"] += static_cast<double>(lr.cache_bytes);
        m["sim.instrs"] += static_cast<double>(lr.ex.instrs);
        m["sim.words_routed"] += static_cast<double>(lr.ex.words);
        m["sim.dyn_messages"] += static_cast<double>(lr.ex.dyn);
        m["sim.proc_stall_cycles"] += static_cast<double>(lr.ex.stalls);
        seen += lr.us.loops_seen;
        unrolled += lr.us.loops_unrolled;
        est += static_cast<double>(lr.est_makespan);
        cyc += static_cast<double>(lr.ex.cycles);
        instrs += static_cast<double>(lr.ex.instrs);
        part_hits += static_cast<double>(lr.cache.part_hits);
        part_all += static_cast<double>(lr.cache.part_hits +
                                        lr.cache.part_misses);
        sched_hits += static_cast<double>(lr.cache.sched_hits);
        sched_all += static_cast<double>(lr.cache.sched_hits +
                                         lr.cache.sched_misses);
        ref_ms += lr.ref_ms;
        region_ms += lr.region_ms;
    }
    double thr_ms = tr.self_ms("sim.threaded");
    m["unroll.static_loops_frac"] = seen > 0 ? unrolled / seen : 0;
    m["schedule.est_over_actual"] = est / cyc;
    m["schedcache.part_hit_frac"] = part_all > 0 ? part_hits / part_all : 0;
    m["schedcache.sched_hit_frac"] =
        sched_all > 0 ? sched_hits / sched_all : 0;
    m["sim.threaded.mcps"] = cyc / thr_ms / 1e3;
    m["sim.reference.mcps"] = cyc / ref_ms / 1e3;
    m["sim.region.mcps"] = cyc / region_ms / 1e3;
    m["sim.threaded.ns_per_instr"] = thr_ms * 1e6 / instrs;

    // The per-program rows cover all ten points; points outside this
    // workload are compiled and simulated once, traced but unverified
    // against other cores.
    int64_t req = static_cast<int64_t>(order.size()) + 1;
    for (const Point &pt : every) {
        std::string label = pt.label();
        if (!runs.count(label)) {
            runs[label] =
                traced_point(pt, tr, req++, false, committed, out);
            verify_point(pt, runs[label].ex, committed, out);
        }
        m["cycles." + label] = static_cast<double>(runs[label].ex.cycles);
        m["compile_ms." + label] = runs[label].compile_ms;
    }
    m["verify.fail_frac"] = static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted);
}

Outcome
run_compile_workload(const Options &o, const std::vector<Point> &own)
{
    Outcome out;
    std::map<std::string, int64_t> committed = committed_cycles();
    if (!o.trace) {
        measure_untraced(o, own, committed, out);
        out.metrics["peak_rss_mb"] = self_peak_rss_mb();
        return out;
    }
    // Every traced run reports every per-layer metric, so the compile
    // workloads run the serve layer too (README.md, "Per-layer
    // metrics").
    Tracer tr;
    traced_layers(o, own, committed, tr, out);
    serve_layers(o, committed, tr, out);
    tr.write_chrome(o.trace_out);
    return out;
}

} // namespace perfbench
