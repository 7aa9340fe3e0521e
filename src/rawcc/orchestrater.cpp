#include "rawcc/orchestrater.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "harness/parallel.hpp"
#include "rawcc/schedcache.hpp"
#include "schedule/modulo.hpp"
#include "support/error.hpp"
#include "transform/congruence.hpp"
#include "transform/rename.hpp"

namespace raw {

namespace {

/** Control tail: cloned replicated instructions with fresh temps. */
struct TailTemplate
{
    std::vector<VInstr> instrs;
    std::unordered_map<ValueId, ValueId> remap;
};

TailTemplate
build_tail(Function &fn, int b, const ReplicationAnalysis &repl)
{
    TailTemplate t;
    const std::vector<int> cloned = repl.cloned_instrs(b);
    for (int k : cloned) {
        const Instr &in = fn.blocks[b].instrs[k];
        VInstr v;
        v.op = in.op;
        v.type = in.type;
        v.imm = in.imm_bits;
        v.array = in.array;
        for (int s = 0; s < in.num_srcs(); s++) {
            ValueId x = in.src[s];
            if (!fn.values[x].is_var) {
                auto it = t.remap.find(x);
                check(it != t.remap.end(),
                      "control tail: slice temp without a cloned def");
                x = it->second;
            }
            v.src[s] = x;
        }
        if (in.has_dst()) {
            if (fn.values[in.dst].is_var) {
                v.dst = in.dst;
            } else {
                ValueId fresh = fn.new_value(in.type);
                t.remap[in.dst] = fresh;
                v.dst = fresh;
            }
        }
        t.instrs.push_back(v);
    }
    return t;
}

/**
 * Rewrite statically unanalyzable refs to the dynamic network.
 *
 * Correctness requires more than flipping the opcode: tiles are
 * decoupled across basic blocks, so two dynamic references to the
 * same array in different blocks would race if they executed on
 * different tiles.  The conservative model (Section 5.1 "fails for
 * other memory references") therefore treats any array with at least
 * one unanalyzable access as *fully dynamic*: every access to it
 * becomes a dynamic reference, and the task graph pins all of them to
 * one designated tile per array, whose in-order instruction stream
 * serializes them program-wide.
 */
int
rewrite_dynamic_refs(Function &fn, const HomeMap &homes)
{
    // Pass 1: find arrays with any statically unanalyzable access.
    std::vector<bool> dynamic_array(fn.arrays.size(), false);
    CongruenceMap cong(fn);
    for (size_t b = 0; b < fn.blocks.size(); b++) {
        cong.analyze(static_cast<int>(b));
        for (const Instr &in : fn.blocks[b].instrs) {
            if (in.op != Op::kLoad && in.op != Op::kStore)
                continue;
            if (cong.residue_mod(in.src[0], homes.n_tiles) < 0)
                dynamic_array[in.array] = true;
        }
    }
    // Pass 2: demote every access of a dynamic array.
    int count = 0;
    for (size_t b = 0; b < fn.blocks.size(); b++) {
        cong.analyze(static_cast<int>(b));
        for (Instr &in : fn.blocks[b].instrs) {
            if (in.op != Op::kLoad && in.op != Op::kStore)
                continue;
            if (dynamic_array[in.array]) {
                if (getenv("RAW_DEBUG_DYN") && count < 10) {
                    const Congruence &c = cong.get(in.src[0]);
                    fprintf(stderr,
                            "dyn ref: block %s array %s idx v%d "
                            "cong (%lld mod %lld)\n",
                            fn.blocks[b].name.c_str(),
                            fn.arrays[in.array].name.c_str(),
                            in.src[0],
                            static_cast<long long>(c.residue),
                            static_cast<long long>(c.modulus));
                }
                in.op = in.op == Op::kLoad ? Op::kDynLoad
                                           : Op::kDynStore;
                count++;
            }
        }
    }
    return count;
}

/** Translate one block instruction to a VInstr. */
VInstr
to_vinstr(const Instr &in, int print_seq)
{
    VInstr v;
    v.op = in.op;
    v.type = in.type;
    v.dst = in.dst;
    v.src[0] = in.src[0];
    v.src[1] = in.src[1];
    v.imm = in.imm_bits;
    v.array = in.array;
    v.print_seq = print_seq;
    return v;
}

/**
 * A small free-list of congruence analyzers: each one holds an
 * O(#values) fact table, so parallel workers reuse released analyzers
 * instead of allocating one per block.
 */
class CongruencePool
{
  public:
    explicit CongruencePool(const Function &fn) : fn_(fn) {}

    std::unique_ptr<CongruenceMap>
    acquire()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!free_.empty()) {
                std::unique_ptr<CongruenceMap> p =
                    std::move(free_.back());
                free_.pop_back();
                return p;
            }
        }
        return std::make_unique<CongruenceMap>(fn_);
    }

    void
    release(std::unique_ptr<CongruenceMap> p)
    {
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(std::move(p));
    }

  private:
    const Function &fn_;
    std::mutex mu_;
    std::vector<std::unique_ptr<CongruenceMap>> free_;
};

/**
 * Emit the per-tile processor and switch streams of one scheduled
 * block into @p tiles_b / @p switches_b (both sized n_tiles).  Pure
 * with respect to everything but its outputs, so blocks can emit
 * concurrently.
 */
void
emit_block_streams(const Function &fn, int b, const TaskGraph &graph,
                   const BlockSchedule &sched, const TailTemplate &tail,
                   const ReplicationAnalysis &repl,
                   const std::map<ValueId, int> &svreg,
                   const std::vector<bool> &switch_active,
                   const std::vector<int> &pseq_b,
                   const MachineConfig &machine,
                   std::vector<std::vector<VInstr>> &tiles_b,
                   std::vector<std::vector<SInstr>> &switches_b)
{
    const int n_tiles = machine.n_tiles;
    const Block &blk = fn.blocks[b];
    const Instr &term = blk.terminator();
    tiles_b.assign(n_tiles, {});
    switches_b.assign(n_tiles, {});

    // ---- Processor streams. ---------------------------------
    for (int t = 0; t < n_tiles; t++) {
        std::vector<VInstr> &code = tiles_b[t];
        for (const TileItem &item : sched.tiles[t]) {
            switch (item.kind) {
              case TileItem::Kind::kCompute: {
                const TGNode &nd = graph.nodes()[item.node];
                check(nd.kind == TGKind::kInstr,
                      "orchestrater: scheduled import");
                code.push_back(to_vinstr(blk.instrs[nd.instr],
                                         pseq_b[nd.instr]));
                break;
              }
              case TileItem::Kind::kSend: {
                VInstr v;
                v.op = Op::kSend;
                v.src[0] = item.value;
                code.push_back(v);
                break;
              }
              case TileItem::Kind::kRecv: {
                VInstr v;
                v.op = Op::kRecv;
                v.dst = item.value;
                code.push_back(v);
                break;
              }
            }
        }
        // Control tail + terminator.
        for (const VInstr &v : tail.instrs)
            code.push_back(v);
        switch (term.op) {
          case Op::kJump: {
            VInstr v;
            v.op = Op::kJump;
            v.target_block = term.target[0];
            code.push_back(v);
            break;
          }
          case Op::kHalt: {
            VInstr v;
            v.op = Op::kHalt;
            code.push_back(v);
            break;
          }
          case Op::kBranch: {
            ValueId cond = term.src[0];
            if (repl.branch_replicated(b) &&
                !fn.values[cond].is_var) {
                auto it = tail.remap.find(cond);
                check(it != tail.remap.end(),
                      "orchestrater: replicated branch condition "
                      "not in tail");
                cond = it->second;
            }
            VInstr br;
            br.op = Op::kBranch;
            br.src[0] = cond;
            br.target_block = term.target[0];
            code.push_back(br);
            VInstr jf;
            jf.op = Op::kJump;
            jf.target_block = term.target[1];
            code.push_back(jf);
            break;
          }
          default:
            panic("orchestrater: bad terminator");
        }
    }

    // ---- Switch streams. ------------------------------------
    for (int t = 0; t < n_tiles; t++) {
        if (!switch_active[t])
            continue;
        std::vector<SInstr> &code = switches_b[t];
        // One ROUTE per hop: same-cycle hops of distinct paths
        // stay separate instructions in a globally consistent
        // (cycle, path) order — see SwitchItem::path.
        for (const SwitchItem &item : sched.switches[t]) {
            SInstr route;
            route.k = SInstr::K::kRoute;
            RoutePair rp;
            rp.in = item.in;
            rp.out_mask = item.out_mask;
            rp.reg_dst = item.to_reg ? 0 : -1;
            route.routes.push_back(rp);
            code.push_back(std::move(route));
        }
        // Control tail: every active switch maintains the
        // replicated variables in every block, not only in
        // blocks that end in a replicated branch — the loop
        // counter's init and update slices live in jump blocks.
        // Temp switch registers are reused after a temp's last
        // use (the replication analysis budgets on this).
        std::map<ValueId, int> stemp;
        std::vector<int> sfree;
        for (int r = machine.num_switch_registers;
             r-- > 1 + static_cast<int>(svreg.size());)
            sfree.push_back(r);
        std::map<ValueId, size_t> last_use;
        for (size_t pos = 0; pos < tail.instrs.size(); pos++) {
            const VInstr &v = tail.instrs[pos];
            for (ValueId s : v.src)
                if (s != kNoValue && !fn.values[s].is_var)
                    last_use[s] = pos;
        }
        ValueId br_cond = kNoValue;
        if (term.op == Op::kBranch &&
            repl.branch_replicated(b)) {
            br_cond = term.src[0];
            if (!fn.values[br_cond].is_var) {
                auto it = tail.remap.find(br_cond);
                check(it != tail.remap.end(),
                      "orchestrater: replicated condition "
                      "missing from tail");
                br_cond = it->second;
                last_use[br_cond] = tail.instrs.size();
            }
        }
        auto sreg = [&](ValueId v) -> int {
            auto iv = svreg.find(v);
            if (iv != svreg.end())
                return iv->second;
            auto it = stemp.find(v);
            check(it != stemp.end(),
                  "orchestrater: unmapped switch value");
            return it->second;
        };
        for (size_t pos = 0; pos < tail.instrs.size(); pos++) {
            const VInstr &v = tail.instrs[pos];
            SInstr si;
            si.k = SInstr::K::kAlu;
            si.op = v.op;
            si.imm = v.imm;
            if (v.src[0] != kNoValue)
                si.a = sreg(v.src[0]);
            if (v.src[1] != kNoValue)
                si.b = sreg(v.src[1]);
            if (v.dst != kNoValue) {
                auto iv = svreg.find(v.dst);
                if (iv != svreg.end()) {
                    si.dst = iv->second;
                } else {
                    check(!sfree.empty(),
                          "orchestrater: switch register "
                          "budget exceeded");
                    stemp[v.dst] = sfree.back();
                    sfree.pop_back();
                    si.dst = stemp[v.dst];
                }
            }
            code.push_back(si);
            // Free temps whose last use was this instruction.
            for (ValueId s : v.src) {
                if (s == kNoValue || fn.values[s].is_var)
                    continue;
                auto lu = last_use.find(s);
                auto tr = stemp.find(s);
                if (lu != last_use.end() && lu->second == pos &&
                    tr != stemp.end()) {
                    sfree.push_back(tr->second);
                    stemp.erase(tr);
                }
            }
        }
        if (term.op == Op::kBranch &&
            repl.branch_replicated(b)) {
            ValueId cond = term.src[0];
            if (!fn.values[cond].is_var) {
                auto it = tail.remap.find(cond);
                check(it != tail.remap.end(),
                      "orchestrater: switch branch condition "
                      "not in tail");
                cond = it->second;
            }
            SInstr bn;
            bn.k = SInstr::K::kBnez;
            bn.cond = sreg(cond);
            bn.target = term.target[0];
            code.push_back(bn);
            SInstr jf;
            jf.k = SInstr::K::kJump;
            jf.target = term.target[1];
            code.push_back(jf);
        } else if (term.op == Op::kBranch) {
            SInstr bn;
            bn.k = SInstr::K::kBnez;
            bn.cond = 0;
            bn.target = term.target[0];
            code.push_back(bn);
            SInstr jf;
            jf.k = SInstr::K::kJump;
            jf.target = term.target[1];
            code.push_back(jf);
        } else if (term.op == Op::kJump) {
            SInstr j;
            j.k = SInstr::K::kJump;
            j.target = term.target[0];
            code.push_back(j);
        } else {
            SInstr h;
            h.k = SInstr::K::kHalt;
            code.push_back(h);
        }
    }
}

} // namespace

VirtualProgram
orchestrate(Function &fn, const MachineConfig &machine,
            const OrchestraterOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    auto ms_since = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         t0)
            .count();
    };

    const int n_tiles = machine.n_tiles;
    const int n_blocks = static_cast<int>(fn.blocks.size());
    const int n_threads = resolve_jobs(opts.jobs);

    VirtualProgram vp;
    ReplicationAnalysis repl(fn, machine.num_switch_registers, 12,
                             opts.enable_replication);
    VarLiveness live(fn);
    vp.data = partition_data(fn, repl, machine,
                             opts.var_home_override);
    vp.dynamic_refs = rewrite_dynamic_refs(fn, vp.data.homes);

    // Global print ordering tags (program order).
    std::vector<std::vector<int>> pseq(n_blocks);
    for (int b = 0; b < n_blocks; b++) {
        pseq[b].assign(fn.blocks[b].instrs.size(), -1);
        for (size_t k = 0; k < fn.blocks[b].instrs.size(); k++)
            if (fn.blocks[b].instrs[k].op == Op::kPrint)
                pseq[b][k] = vp.num_prints++;
    }

    // Control tails for every block, up front and in block order:
    // build_tail creates fresh values, and keeping all function
    // mutation serial (and before the parallel phases) makes value id
    // allocation identical at any job count and any cache state.
    std::vector<TailTemplate> tails;
    tails.reserve(n_blocks);
    for (int b = 0; b < n_blocks; b++)
        tails.push_back(build_tail(fn, b, repl));

    // Switch register binding for replicated control: register 0 is
    // the broadcast register; replicated variables get 1..k.
    std::map<ValueId, int> svreg;
    {
        int next = 1;
        for (ValueId v : fn.var_ids())
            if (repl.var_replicated(v))
                svreg[v] = next++;
    }
    std::vector<int> svreg_of(fn.values.size(), -1);
    for (const auto &[v, r] : svreg)
        svreg_of[v] = r;

    // Which branches broadcast?  The condition's producing node is
    // resolved lazily on a schedule-cache miss, where the task graph
    // exists anyway.
    std::vector<bool> needs_bcast(n_blocks, false);
    bool any_bcast = false;
    for (int b = 0; b < n_blocks; b++) {
        const Instr &term = fn.blocks[b].terminator();
        if (term.op != Op::kBranch)
            continue;
        if (repl.branch_replicated(b)) {
            vp.replicated_branches++;
            continue;
        }
        vp.broadcast_branches++;
        needs_bcast[b] = true;
        any_bcast = true;
    }

    SchedCache &cache = SchedCache::instance();

    // Per-block working state.  Each parallel job owns exactly its
    // own index; every cross-block merge below runs serially in block
    // order, so results are bit-identical at any thread count.
    std::vector<SchedCacheCounters> ctr(n_blocks);
    std::vector<BlockCanon> canons(n_blocks);
    std::vector<BlockKey> part_keys(n_blocks);
    std::vector<std::shared_ptr<const PartEntry>> pentries(n_blocks);
    std::vector<std::unique_ptr<TaskGraph>> graphs(n_blocks);
    std::vector<Partition> parts(n_blocks);
    std::vector<std::vector<uint8_t>> probes(n_blocks);
    CongruencePool cong_pool(fn);

    auto ensure_graph = [&](int b) -> TaskGraph & {
        if (!graphs[b]) {
            std::unique_ptr<CongruenceMap> cg = cong_pool.acquire();
            cg->analyze(b);
            graphs[b] = std::make_unique<TaskGraph>(
                fn, b, machine, *cg, repl, live, vp.data.homes);
            cong_pool.release(std::move(cg));
        }
        return *graphs[b];
    };

    // The switch-probe mask costs a comm-routing pass per block, so
    // it is only computed when something will consume it: any
    // broadcast on a multi-tile machine activates every switch and
    // the mask is moot.  Cache entries record whether they carry it
    // (probe_valid); an entry without it misses for compiles that
    // need it and is re-put upgraded.
    const bool need_probe = !(any_bcast && n_tiles > 1);

    // ---- Phase 1 (parallel): partition every block. -------------
    Clock::time_point t_part = Clock::now();
    run_parallel(n_blocks, n_threads, [&](int b) {
        if (opts.use_cache) {
            canons[b] = block_canon(fn, b, tails[b].instrs, pseq[b]);
            part_keys[b] = block_partition_key(
                fn, b, tails[b].instrs, canons[b], machine,
                vp.data.homes, repl, live, svreg_of,
                static_cast<int>(svreg.size()), opts.partition);
            pentries[b] =
                cache.get_part(part_keys[b], need_probe, ctr[b]);
            if (pentries[b]) {
                const PartEntry &e = *pentries[b];
                parts[b].tile_of.assign(e.tile_of.begin(),
                                        e.tile_of.end());
                parts[b].cross_edges = e.cross_edges;
                parts[b].swaps_evaluated = e.swaps_evaluated;
                return;
            }
        }
        const TaskGraph &g = ensure_graph(b);
        parts[b] =
            partition_taskgraph(g, machine, opts.partition);
        if (need_probe) {
            // Switch activity this block contributes without any
            // broadcast: switches its route trees transit.
            probes[b].assign(n_tiles, 0);
            std::vector<CommPath> paths =
                build_comm_paths(g, parts[b], machine, -1, {});
            for (const CommPath &p : paths) {
                RouteTree tree = build_route_tree(machine, p);
                for (const TreeHop &h : tree.hops)
                    probes[b][h.tile] = 1;
            }
        }
        if (opts.use_cache) {
            auto e = std::make_shared<PartEntry>();
            e->tile_of.assign(parts[b].tile_of.begin(),
                              parts[b].tile_of.end());
            e->cross_edges = parts[b].cross_edges;
            e->swaps_evaluated = parts[b].swaps_evaluated;
            e->probe_switch = probes[b];
            e->probe_valid = need_probe;
            // Usage votes in canonical numbering, aggregated in
            // deterministic (var, tile) order.
            std::map<std::pair<int32_t, int32_t>, int64_t> votes;
            for (size_t i = 0; i < g.nodes().size(); i++) {
                const TGNode &nd = g.nodes()[i];
                if (nd.kind == TGKind::kImport) {
                    for (int u : g.succs(static_cast<int>(i)))
                        votes[{canons[b].canon_value(nd.var),
                               parts[b].tile_of[u]}]++;
                } else if (is_writeback(
                               fn, fn.blocks[b].instrs[nd.instr])) {
                    for (int p : g.preds(static_cast<int>(i)))
                        votes[{canons[b].canon_value(
                                   fn.blocks[b].instrs[nd.instr].dst),
                               parts[b].tile_of[p]}]++;
                }
            }
            for (const auto &[k, n] : votes)
                e->votes.push_back({k.first, k.second, n});
            cache.put_part(part_keys[b], *e);
            pentries[b] = e;
        }
    });
    vp.partition_phase_ms = ms_since(t_part);

    // ---- Serial merge: swaps, votes, switch activity. -----------
    for (int b = 0; b < n_blocks; b++) {
        vp.placement_swaps += parts[b].swaps_evaluated;
        if (pentries[b]) {
            for (const auto &v : pentries[b]->votes)
                vp.var_votes[canons[b].value_of(
                    static_cast<int32_t>(v[0]))]
                            [static_cast<int>(v[1])] +=
                    static_cast<int>(v[2]);
        } else {
            const TaskGraph &g = *graphs[b];
            for (size_t i = 0; i < g.nodes().size(); i++) {
                const TGNode &nd = g.nodes()[i];
                if (nd.kind == TGKind::kImport) {
                    for (int u : g.succs(static_cast<int>(i)))
                        vp.var_votes[nd.var][parts[b].tile_of[u]]++;
                } else if (is_writeback(
                               fn, fn.blocks[b].instrs[nd.instr])) {
                    for (int p : g.preds(static_cast<int>(i)))
                        vp.var_votes[fn.blocks[b].instrs[nd.instr].dst]
                                    [parts[b].tile_of[p]]++;
                }
            }
        }
    }

    // Switch activity: any switch that routes a word anywhere must
    // follow all control flow; broadcasts transit arbitrary switches,
    // so any broadcast on a multi-tile machine activates every switch.
    vp.switch_active.assign(n_tiles, false);
    if (any_bcast && n_tiles > 1) {
        vp.switch_active.assign(n_tiles, true);
    } else {
        for (int b = 0; b < n_blocks; b++) {
            const std::vector<uint8_t> &mask =
                pentries[b] ? pentries[b]->probe_switch : probes[b];
            for (int t = 0; t < n_tiles; t++)
                if (t < static_cast<int>(mask.size()) && mask[t])
                    vp.switch_active[t] = true;
        }
    }

    // ---- Phase 2 (parallel): schedule + emit every block. -------
    std::vector<int64_t> makespans(n_blocks, 0);
    std::vector<std::vector<int64_t>> busys(n_blocks);
    std::vector<BlockPipelineStats> pstats(n_blocks);
    std::vector<std::vector<std::vector<VInstr>>> btiles(n_blocks);
    std::vector<std::vector<std::vector<SInstr>>> bswitches(n_blocks);

    // Modulo scheduling targets blocks on CFG cycles; the CFG is
    // frozen by now (all mutation happened serially above), so the
    // loop-block mask is computed once, outside the fan-out.
    std::vector<uint8_t> on_cycle;
    if (opts.sched.modulo)
        on_cycle = loop_blocks(fn);
    bool any_sw_active = false;
    for (int t = 0; t < n_tiles; t++)
        any_sw_active = any_sw_active || vp.switch_active[t];

    Clock::time_point t_sched = Clock::now();
    run_parallel(n_blocks, n_threads, [&](int b) {
        const Instr &term = fn.blocks[b].terminator();
        BlockKey skey;
        if (opts.use_cache) {
            skey = block_schedule_key(part_keys[b], opts.sched,
                                      vp.switch_active);
            if (std::shared_ptr<const std::string> blob =
                    cache.get_sched(skey, ctr[b])) {
                check(rehydrate_sched_payload(*blob, canons[b], term,
                                              makespans[b], busys[b],
                                              pstats[b], btiles[b],
                                              bswitches[b]),
                      "schedcache: resident schedule entry unparsable");
                return;
            }
        }
        const TaskGraph &g = ensure_graph(b);
        int bcast = -1;
        if (needs_bcast[b]) {
            bcast = g.producer_of(term.src[0]);
            check(bcast >= 0, "orchestrater: branch condition has no "
                              "producing node");
        }
        std::vector<CommPath> paths = build_comm_paths(
            g, parts[b], machine, bcast, vp.switch_active);
        LoopPipelineInfo loop;
        if (opts.sched.modulo)
            loop = analyze_loop_block(
                fn, b, g, on_cycle[b] != 0,
                static_cast<int>(tails[b].instrs.size()),
                any_sw_active);
        BlockSchedule sched = schedule_block_pipelined(
            g, parts[b], machine, paths, opts.sched, loop);
        makespans[b] = sched.makespan;
        busys[b] = sched.tile_busy;
        pstats[b] = {b,         fn.blocks[b].src_loop, sched.pipelined,
                     sched.ii,  sched.mii,             sched.res_mii,
                     sched.rec_mii, sched.flat_mii};
        emit_block_streams(fn, b, g, sched, tails[b], repl, svreg,
                           vp.switch_active, pseq[b], machine,
                           btiles[b], bswitches[b]);
        if (opts.use_cache)
            cache.put_sched(skey,
                            dehydrate_streams(canons[b], term, sched,
                                              btiles[b], bswitches[b]));
    });
    vp.schedule_phase_ms = ms_since(t_sched);

    // ---- Serial finalize. ---------------------------------------
    vp.tiles.assign(n_tiles,
                    std::vector<std::vector<VInstr>>(n_blocks));
    vp.switches.assign(n_tiles,
                       std::vector<std::vector<SInstr>>(n_blocks));
    vp.est_tile_busy.assign(n_tiles, 0);
    for (int b = 0; b < n_blocks; b++) {
        vp.block_makespan.push_back(makespans[b]);
        for (int t = 0; t < n_tiles; t++) {
            vp.est_tile_busy[t] += busys[b][t];
            vp.tiles[t][b] = std::move(btiles[b][t]);
            vp.switches[t][b] = std::move(bswitches[b][t]);
        }
        // Loop blocks carry mii >= 1 (whether computed or rehydrated
        // from a cached payload); everything else stays all-zero.
        if (opts.sched.modulo && pstats[b].mii > 0) {
            pstats[b].block = b;
            pstats[b].src_loop = fn.blocks[b].src_loop;
            vp.block_pipeline.push_back(pstats[b]);
        }
        vp.cache.add(ctr[b]);
    }

    // Persistent value sets per tile.
    vp.persistent.assign(n_tiles, {});
    for (ValueId v : fn.var_ids()) {
        if (repl.var_replicated(v)) {
            for (int t = 0; t < n_tiles; t++)
                vp.persistent[t].push_back(v);
        } else {
            vp.persistent[vp.data.homes.var_home[v]].push_back(v);
        }
    }
    return vp;
}

} // namespace raw
