#include "rawcc/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <set>
#include <sstream>

#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "ir/verifier.hpp"
#include "rawcc/portfold.hpp"
#include "sim/simulator.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"
#include "transform/simplify.hpp"
#include "transform/split.hpp"
#include "transform/strength.hpp"

namespace raw {

namespace {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p t0, advancing @p t0 to now. */
double
lap_ms(Clock::time_point &t0)
{
    Clock::time_point t1 = Clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
    t0 = t1;
    return ms;
}

} // namespace

PlacementFeedback
placement_feedback_from_profile(const SimResult &sim,
                                const MachineConfig &machine)
{
    PlacementFeedback fb;
    const auto &tiles = sim.profile.tiles;
    if (static_cast<int>(tiles.size()) != machine.n_tiles)
        return fb;

    std::vector<int64_t> comm(machine.n_tiles, 0);
    std::vector<int64_t> proc(machine.n_tiles, 0);
    for (int t = 0; t < machine.n_tiles; t++) {
        const TileProfile &tp = tiles[t];
        int64_t stalls = std::accumulate(tp.route_stalls.begin(),
                                         tp.route_stalls.end(),
                                         int64_t{0});
        comm[t] = tp.words_routed + stalls;
        proc[t] =
            tp.proc_cycles[static_cast<int>(ProcCycle::kIssued)] +
            tp.proc_cycles[static_cast<int>(
                ProcCycle::kSendBlocked)] +
            tp.proc_cycles[static_cast<int>(ProcCycle::kRecvBlocked)];
    }

    auto normalize = [](std::vector<int64_t> &v) {
        int64_t mx = *std::max_element(v.begin(), v.end());
        if (mx <= 0) {
            v.clear();
            return;
        }
        for (int64_t &x : v)
            x = (x * kPlacePenaltyMax + mx / 2) / mx;
    };
    normalize(comm);
    normalize(proc);
    fb.comm_penalty = std::move(comm);
    fb.proc_penalty = std::move(proc);
    return fb;
}

std::string
options_fingerprint(const CompilerOptions &opts)
{
    std::ostringstream os;
    const UnrollOptions &u = opts.unroll;
    os << "u:" << u.enable << " " << u.n_tiles << " "
       << u.small_peel_limit << " " << u.forced_peel_limit;
    const PartitionOptions &p = opts.orch.partition;
    os << "|p:" << static_cast<int>(p.cluster_mode) << " "
       << static_cast<int>(p.place_mode) << " " << p.seed << " "
       << p.crit_weight << " fb";
    for (int64_t v : p.feedback.comm_penalty)
        os << " " << v;
    os << " /";
    for (int64_t v : p.feedback.proc_penalty)
        os << " " << v;
    const SchedOptions &s = opts.orch.sched;
    os << "|s:" << s.level_weight << " " << s.fertility_weight << " "
       << s.fifo_priority << " " << s.sched_iters << " "
       << s.route_select << " " << s.modulo << " " << s.mii_cap;
    os << "|o:" << opts.orch.enable_replication << " "
       << opts.orch.fold_ports << " hv";
    for (int v : opts.orch.var_home_override)
        os << " " << v;
    os << "|c:" << opts.max_block_len << " " << opts.smart_homes;
    return os.str();
}

std::vector<CompilerOptions>
pgo_candidates(const CompilerOptions &base, const PlacementFeedback &fb)
{
    CompilerOptions plain = base;
    plain.pgo = false;
    std::vector<CompilerOptions> cands;
    std::set<std::string> seen;
    auto add = [&](const CompilerOptions &c) {
        // Drop candidates whose effective options duplicate an
        // earlier one (the base may already carry a PGO knob).
        if (seen.insert(options_fingerprint(c)).second)
            cands.push_back(c);
    };
    add(plain);
    if (!fb.empty()) {
        CompilerOptions c = plain;
        c.orch.partition.feedback = fb;
        add(c);
    }
    {
        CompilerOptions c = plain;
        c.orch.partition.crit_weight = 8;
        add(c);
        if (!fb.empty()) {
            c.orch.partition.feedback = fb;
            add(c);
        }
    }
    // Alternative priority weightings: block makespans usually tie,
    // but the resulting issue orders measure differently; the
    // simulated pick keeps whichever order the machine favors.
    for (auto [lw, fw] : {std::pair<int, int>{4, 1},
                          {16, 4},
                          {16, 0},
                          {2, 1}}) {
        CompilerOptions c = plain;
        c.orch.sched.level_weight = lw;
        c.orch.sched.fertility_weight = fw;
        add(c);
    }
    // Usage-voted data homes (the paper's stated future work for the
    // round-robin policy).
    {
        CompilerOptions c = plain;
        c.smart_homes = true;
        add(c);
    }
    // Modulo scheduling optimizes the modeled steady-state II, which
    // can trade away flat makespan; when the base compile pipelines,
    // race the plain greedy schedule too so the measured pick keeps
    // whichever the machine actually runs faster.
    if (plain.orch.sched.modulo) {
        CompilerOptions c = plain;
        c.orch.sched.modulo = false;
        add(c);
    }
    // More aggressive loop peeling: staticizes more references at
    // the cost of code size.  This often wins big (whole loop nests
    // become static) but can also lose (replicated work outgrows the
    // tile count), so it only ever enters the program through the
    // measured pick.
    if (plain.unroll.enable) {
        CompilerOptions c = plain;
        c.unroll.small_peel_limit *= 4;
        c.unroll.forced_peel_limit *= 4;
        add(c);
    }
    return cands;
}

int64_t
CompileStats::estimated_makespan() const
{
    return std::accumulate(block_makespan.begin(),
                           block_makespan.end(), int64_t{0});
}

namespace {

/**
 * The option-independent transform pipeline between lowering and
 * orchestration.  Given equal (max_block_len, verify_ir) this is a
 * pure function of the lowered IR, which is what lets a PGO race
 * share one transformed function across its candidates.
 */
void
transform_function(Function &fn, const CompilerOptions &opts)
{
    // Malformed input must fail cleanly before any transform touches
    // it (the passes assume structurally valid blocks).
    if (opts.verify_ir)
        verify_or_panic(fn, "input");

    constfold_function(fn);
    while (simplify_cfg(fn))
        constfold_function(fn);
    strength_reduce(fn);
    constfold_function(fn);
    split_large_blocks(fn, opts.max_block_len);
    if (opts.verify_ir)
        verify_or_panic(fn, "constfold");
    rename_function(fn);
    if (opts.verify_ir)
        verify_or_panic(fn, "rename");
}

/**
 * Orchestrate and link an already-transformed function.  total_ms
 * covers only these back-end stages; callers fold in whatever
 * frontend time produced @p fn.
 */
CompileOutput
orchestrate_and_link(Function fn, const MachineConfig &machine,
                     const CompilerOptions &opts)
{
    CompileOutput out;
    Clock::time_point t0 = Clock::now();
    out.stats.ir_instrs = static_cast<int64_t>(fn.num_instrs());

    OrchestraterOptions orch_opts = opts.orch;
    if (opts.smart_homes && orch_opts.var_home_override.empty()) {
        // Phase 1: trial orchestration on a copy to collect usage
        // votes; phase 2 (below) re-runs with the voted homes.
        // With the schedule cache on, this probe is typically a full
        // hit of an earlier plain compile of the same program.
        Function trial = fn;
        VirtualProgram probe = orchestrate(trial, machine, orch_opts);
        out.stats.cache.add(probe.cache);
        out.stats.orch_partition_ms += probe.partition_phase_ms;
        out.stats.orch_schedule_ms += probe.schedule_phase_ms;
        orch_opts.var_home_override.assign(fn.values.size(), -1);
        for (const auto &[v, votes] : probe.var_votes) {
            int best_tile = -1, best = 0;
            for (const auto &[tile, n] : votes)
                if (n > best) {
                    best = n;
                    best_tile = tile;
                }
            if (v < static_cast<ValueId>(fn.values.size()))
                orch_opts.var_home_override[v] = best_tile;
        }
    }
    VirtualProgram vp = orchestrate(fn, machine, orch_opts);
    out.stats.cache.add(vp.cache);
    out.stats.orch_partition_ms += vp.partition_phase_ms;
    out.stats.orch_schedule_ms += vp.schedule_phase_ms;
    out.stats.timings.orchestrate_ms = lap_ms(t0);
    if (opts.orch.fold_ports)
        out.stats.folded_port_ops = fold_port_operands(vp, fn);
    LinkStats ls;
    out.program = link_program(fn, vp, machine, &ls);
    out.stats.timings.link_ms = lap_ms(t0);

    out.stats.dynamic_refs = vp.dynamic_refs;
    out.stats.placement_swaps = vp.placement_swaps;
    out.stats.replicated_branches = vp.replicated_branches;
    out.stats.broadcast_branches = vp.broadcast_branches;
    out.stats.spill_ops = ls.spill_ops;
    out.stats.static_instrs = out.program.static_instrs();
    out.stats.block_makespan = vp.block_makespan;
    out.stats.est_tile_busy = vp.est_tile_busy;
    out.stats.block_pipeline = vp.block_pipeline;
    out.stats.timings.total_ms = out.stats.timings.orchestrate_ms +
                                 out.stats.timings.link_ms;
    out.fn = std::move(fn);
    return out;
}

/** Everything a compile does before orchestration, plus its cost. */
struct FrontendResult
{
    Function fn;
    UnrollStats us;
    double parse_ms = 0;
    double unroll_ms = 0;
    double lower_ms = 0;
    double transform_ms = 0;
};

FrontendResult
run_frontend(const std::string &source, const MachineConfig &machine,
             const CompilerOptions &opts)
{
    FrontendResult f;
    Clock::time_point t0 = Clock::now();
    Program ast = parse_program(source);
    f.parse_ms = lap_ms(t0);
    UnrollOptions uo = opts.unroll;
    uo.n_tiles = machine.n_tiles;
    f.us = unroll_program(ast, uo);
    f.unroll_ms = lap_ms(t0);
    f.fn = lower_program(ast);
    if (opts.verify_ir)
        verify_or_panic(f.fn, "lowering");
    f.lower_ms = lap_ms(t0);
    transform_function(f.fn, opts);
    f.transform_ms = lap_ms(t0);
    return f;
}

/**
 * 128-bit digest of an executable program, used to skip re-measuring
 * PGO candidates that emitted byte-identical programs (alternative
 * priority weightings tie on small blocks all the time).  Field-wise
 * FNV over both streams; struct padding never enters the hash.
 */
std::pair<uint64_t, uint64_t>
program_digest(const CompiledProgram &p)
{
    uint64_t h1 = 1469598103934665603ull;
    uint64_t h2 = 0x9e3779b97f4a7c15ull;
    constexpr uint64_t kPrime = 1099511628211ull;
    auto mix = [&](int64_t v) {
        uint64_t u = static_cast<uint64_t>(v);
        h1 = (h1 ^ u) * kPrime;
        h2 = (h2 ^ (u + 0x9e3779b97f4a7c15ull)) * kPrime;
    };
    mix(static_cast<int64_t>(p.tiles.size()));
    for (const TileProgram &t : p.tiles) {
        mix(static_cast<int64_t>(t.code.size()));
        for (const PInstr &i : t.code) {
            mix(static_cast<int>(i.op));
            mix(static_cast<int>(i.type));
            mix(i.dst);
            mix(i.src[0]);
            mix(i.src[1]);
            mix(static_cast<int64_t>(i.imm));
            mix(i.array);
            mix(i.target);
            mix(i.print_seq);
        }
    }
    for (const SwitchProgram &s : p.switches) {
        mix(static_cast<int64_t>(s.code.size()));
        for (const SInstr &i : s.code) {
            mix(static_cast<int>(i.k));
            mix(static_cast<int>(i.op));
            mix(i.dst);
            mix(i.a);
            mix(i.b);
            mix(static_cast<int64_t>(i.imm));
            mix(i.cond);
            mix(i.target);
            mix(static_cast<int64_t>(i.routes.size()));
            for (const RoutePair &rp : i.routes) {
                mix(static_cast<int>(rp.in));
                mix(rp.out_mask);
                mix(rp.reg_dst);
            }
        }
    }
    return {h1, h2};
}

/**
 * Credit the frontend stages that produced a candidate's IR to the
 * candidate's stats, keeping the per-phase timings summing to
 * total_ms even when several candidates shared one frontend run.
 */
void
attribute_frontend(CompileOutput &out, const FrontendResult &f)
{
    out.stats.unroll = f.us;
    out.stats.timings.parse_ms = f.parse_ms;
    out.stats.timings.unroll_ms = f.unroll_ms;
    out.stats.timings.lower_ms = f.lower_ms;
    out.stats.timings.transform_ms = f.transform_ms;
    out.stats.timings.total_ms += f.parse_ms + f.unroll_ms +
                                  f.lower_ms + f.transform_ms;
}

} // namespace

CompileOutput
compile_function(Function fn, const MachineConfig &machine,
                 const CompilerOptions &opts)
{
    machine.validate();
    Clock::time_point t0 = Clock::now();
    transform_function(fn, opts);
    double transform_ms = lap_ms(t0);
    CompileOutput out =
        orchestrate_and_link(std::move(fn), machine, opts);
    out.stats.timings.transform_ms = transform_ms;
    out.stats.timings.total_ms += transform_ms;
    return out;
}

CompileOutput
compile_source(const std::string &source, const MachineConfig &machine,
               const CompilerOptions &opts)
{
    machine.validate();

    if (opts.pgo && opts.orch.partition.feedback.empty()) {
        // Profile-guided pass: a first full compile+simulate
        // measures where cycles actually went, then each candidate
        // variant (congestion-feedback placement, criticality-
        // weighted traffic, alternative priorities, voted homes,
        // peeling aggressiveness) is compiled and simulated
        // fault-free, and the fastest measured program wins.
        // Candidate 0 is the plain compile, so --pgo can never lose
        // cycles; all candidates run with pgo cleared, keeping this
        // recursion one level deep.  The portfolio lives here rather
        // than in compile_function because unrolling variants act
        // before lowering.
        //
        // The race shares one frontend per distinct unroll slice:
        // parse/unroll/lower/transform cannot observe any other
        // candidate knob, so only the peeling candidate pays for its
        // own, and every other candidate orchestrates a copy of the
        // prepared IR.  Each candidate's stats still carry the
        // frontend timings that produced its IR.
        //
        // The race simulates on the threaded core: every core yields
        // bit-identical cycles and profiles (tests/test_sim_backend),
        // and the threaded one gets there several times faster.
        std::vector<std::pair<std::string, FrontendResult>> fronts;
        auto compile_cand = [&](const CompilerOptions &co) {
            const UnrollOptions &u = co.unroll;
            std::string fkey = std::to_string(u.enable) + ":" +
                               std::to_string(u.small_peel_limit) +
                               ":" +
                               std::to_string(u.forced_peel_limit);
            FrontendResult *f = nullptr;
            for (auto &kv : fronts)
                if (kv.first == fkey)
                    f = &kv.second;
            if (!f) {
                fronts.emplace_back(
                    fkey, run_frontend(source, machine, co));
                f = &fronts.back().second;
            }
            CompileOutput out =
                orchestrate_and_link(Function(f->fn), machine, co);
            attribute_frontend(out, *f);
            return out;
        };

        CompilerOptions probe_opts = opts;
        probe_opts.pgo = false;
        CompileOutput best = compile_cand(probe_opts);
        Simulator sim(best.program, {}, {}, SimBackend::kThreaded);
        SimResult measured = sim.run();
        int64_t best_cycles = measured.cycles;
        PlacementFeedback fb =
            placement_feedback_from_profile(measured, machine);
        // A candidate whose program is byte-identical to one already
        // measured would report the same cycles; don't re-simulate
        // it.  Candidate compiles differ only in options, and option
        // variants frequently tie once blocks are small.
        std::vector<std::pair<std::pair<uint64_t, uint64_t>, int64_t>>
            simmed{{program_digest(best.program), best_cycles}};
        std::vector<CompilerOptions> cands = pgo_candidates(opts, fb);
        for (size_t c = 1; c < cands.size(); c++) {
            CompileOutput cand = compile_cand(cands[c]);
            std::pair<uint64_t, uint64_t> d =
                program_digest(cand.program);
            int64_t cycles = -1;
            for (const auto &kv : simmed)
                if (kv.first == d)
                    cycles = kv.second;
            if (cycles < 0) {
                Simulator csim(cand.program, {}, {},
                               SimBackend::kThreaded);
                cycles = csim.run().cycles;
                simmed.emplace_back(d, cycles);
            }
            if (cycles < best_cycles) {
                best_cycles = cycles;
                best = std::move(cand);
            }
        }
        return best;
    }

    FrontendResult f = run_frontend(source, machine, opts);
    CompileOutput out =
        orchestrate_and_link(std::move(f.fn), machine, opts);
    attribute_frontend(out, f);
    return out;
}

} // namespace raw
