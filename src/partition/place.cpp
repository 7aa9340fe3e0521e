#include "partition/partition.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "support/error.hpp"

namespace raw {

namespace {

/**
 * Per-edge slack under an idealized uniform-latency interconnect:
 * span minus the longest path through the edge.  Zero for edges on
 * the critical path.
 */
std::vector<int64_t>
edge_slack(const TaskGraph &g, int64_t &span_out)
{
    const int n = static_cast<int>(g.nodes().size());
    constexpr int64_t kComm = 2; // idealized cross-partition latency

    // Topological order via repeated ready-set sweeps.
    std::vector<int> indeg(n, 0), order;
    order.reserve(n);
    for (int v = 0; v < n; v++)
        indeg[v] = static_cast<int>(g.preds(v).size());
    std::vector<int> q;
    for (int v = 0; v < n; v++)
        if (indeg[v] == 0)
            q.push_back(v);
    while (!q.empty()) {
        int v = q.back();
        q.pop_back();
        order.push_back(v);
        for (int s : g.succs(v))
            if (--indeg[s] == 0)
                q.push_back(s);
    }

    std::vector<int64_t> level(n, 0), est(n, 0);
    for (int k = static_cast<int>(order.size()); k-- > 0;) {
        int v = order[k];
        int64_t lvl = 0;
        for (int s : g.succs(v))
            lvl = std::max(lvl, kComm + level[s]);
        level[v] = g.nodes()[v].cost + lvl;
    }
    for (int v : order)
        for (int s : g.succs(v))
            est[s] = std::max(est[s],
                              est[v] + g.nodes()[v].cost + kComm);
    int64_t span = 0;
    for (int v = 0; v < n; v++)
        span = std::max(span, est[v] + level[v]);
    span_out = span;

    std::vector<int64_t> slack(g.edges().size(), 0);
    for (size_t e = 0; e < g.edges().size(); e++) {
        const TGEdge &edge = g.edges()[e];
        int64_t through = est[edge.from] +
                          g.nodes()[edge.from].cost + kComm +
                          level[edge.to];
        slack[e] = std::max<int64_t>(0, span - through);
    }
    return slack;
}

/**
 * Word traffic between partitions: one contribution per
 * cross-partition edge.  With @p crit_weight > 0 (PGO) each edge
 * counts 1 + crit_weight * (span - slack) / span words, so tight
 * edges pull their endpoint partitions together harder than slack
 * ones; otherwise every edge is one word.
 */
std::vector<Traffic>
partition_traffic(const TaskGraph &g, const Clustering &merged,
                  int crit_weight)
{
    int64_t span = 0;
    std::vector<int64_t> slack;
    if (crit_weight > 0)
        slack = edge_slack(g, span);
    std::vector<Traffic> out;
    for (size_t e = 0; e < g.edges().size(); e++) {
        const TGEdge &edge = g.edges()[e];
        int a = merged.cluster_of[edge.from];
        int b = merged.cluster_of[edge.to];
        if (a == b)
            continue;
        int64_t bonus = crit_weight > 0 && span > 0
                            ? (crit_weight * (span - slack[e])) / span
                            : 0;
        out.push_back({a, b, 1 + static_cast<int>(bonus)});
    }
    return out;
}

} // namespace

PlacementCost::PlacementCost(int n, const std::vector<Traffic> &traffic,
                             const MachineConfig &machine,
                             const PlacementFeedback &feedback,
                             const std::vector<int64_t> &part_cost)
{
    // Counting-sort both directions of every contribution into rows,
    // then fold each row's repeated partners in place; at[q] is the
    // slot of partner q in the row being folded (earlier rows' slots
    // are all below that row's start).
    auto counted = [](const Traffic &t) { return t.a != t.b && t.words; };
    row_start_.assign(n + 1, 0);
    for (const Traffic &t : traffic)
        if (counted(t)) {
            row_start_[t.a + 1]++;
            row_start_[t.b + 1]++;
        }
    for (int p = 0; p < n; p++)
        row_start_[p + 1] += row_start_[p];
    entries_.resize(row_start_[n]);
    std::vector<int> fill(row_start_.begin(), row_start_.end() - 1);
    for (const Traffic &t : traffic)
        if (counted(t)) {
            entries_[fill[t.a]++] = {t.b, t.words};
            entries_[fill[t.b]++] = {t.a, t.words};
        }
    std::vector<int> at(n, -1);
    row_sum_.assign(n, 0);
    int out = 0;
    for (int p = 0; p < n; p++) {
        const int begin = out;
        for (int e = row_start_[p]; e < row_start_[p + 1]; e++) {
            const Entry en = entries_[e];
            row_sum_[p] += en.words;
            if (at[en.part] >= begin) {
                entries_[at[en.part]].words += en.words;
            } else {
                at[en.part] = out;
                entries_[out++] = en;
            }
        }
        row_start_[p] = begin;
    }
    row_start_[n] = out;
    entries_.resize(out);
    tile_row_.resize(machine.n_tiles);
    tile_col_.resize(machine.n_tiles);
    for (int t = 0; t < machine.n_tiles; t++) {
        tile_row_[t] = machine.row_of(t);
        tile_col_[t] = machine.col_of(t);
    }

    // Without feedback the pure-distance cost runs unchanged, so a
    // non-PGO build is bit-identical.  Penalties past the end of the
    // profiled vectors are 0; compute is pre-scaled per partition to
    // keep the swap delta linear (integer division inside the delta
    // would not be).
    use_fb_ = !feedback.empty();
    if (!use_fb_)
        return;
    pen_comm_ = feedback.comm_penalty;
    pen_comm_.resize(machine.n_tiles, 0);
    pen_proc_ = feedback.proc_penalty;
    pen_proc_.resize(machine.n_tiles, 0);
    check(static_cast<int>(part_cost.size()) == n,
          "placement: one compute cost per partition");
    comp_.resize(n);
    for (int p = 0; p < n; p++)
        comp_[p] = part_cost[p] / kPlacePenaltyMax;
}

int64_t
PlacementCost::total(const std::vector<int> &tile_of_partition) const
{
    const int n = static_cast<int>(row_sum_.size());
    int64_t cost = 0;
    for (int a = 0; a < n; a++) {
        const int ta = tile_of_partition[a];
        for (int e = row_start_[a]; e < row_start_[a + 1]; e++) {
            const Entry &en = entries_[e];
            if (en.part <= a)
                continue;
            const int tb = tile_of_partition[en.part];
            int64_t per_word = distance(ta, tb);
            if (use_fb_)
                per_word = kPlaceDistUnit * per_word + pen_comm_[ta] +
                           pen_comm_[tb];
            cost += en.words * per_word;
        }
        if (use_fb_)
            cost += comp_[a] * pen_proc_[ta];
    }
    return cost;
}

int64_t
PlacementCost::swap_delta(const std::vector<int> &tile_of_partition,
                          int i, int j) const
{
    const int ti = tile_of_partition[i];
    const int tj = tile_of_partition[j];
    int64_t delta = 0;
    int64_t w_ij = 0;
    for (int e = row_start_[i]; e < row_start_[i + 1]; e++) {
        const Entry &en = entries_[e];
        if (en.part == j) {
            w_ij = en.words;
            continue;
        }
        const int tk = tile_of_partition[en.part];
        delta += static_cast<int64_t>(en.words) *
                 (distance(tj, tk) - distance(ti, tk));
    }
    for (int e = row_start_[j]; e < row_start_[j + 1]; e++) {
        const Entry &en = entries_[e];
        if (en.part == i)
            continue;
        const int tk = tile_of_partition[en.part];
        delta += static_cast<int64_t>(en.words) *
                 (distance(ti, tk) - distance(tj, tk));
    }
    if (!use_fb_)
        return delta;
    // Penalty terms: the (i,j) pair's penalty sum is symmetric and
    // cancels, every other pair touching i or j swaps one endpoint's
    // penalty.
    const int64_t wi = row_sum_[i] - w_ij;
    const int64_t wj = row_sum_[j] - w_ij;
    return kPlaceDistUnit * delta +
           (pen_comm_[tj] - pen_comm_[ti]) * (wi - wj) +
           (pen_proc_[tj] - pen_proc_[ti]) * (comp_[i] - comp_[j]);
}

Partition
place_partitions(const TaskGraph &g, const Clustering &merged,
                 const MachineConfig &machine,
                 const PartitionOptions &opts)
{
    const int n_tiles = machine.n_tiles;
    check(merged.n_clusters == n_tiles,
          "placement expects one partition per tile");

    // Initial assignment: pinned partitions are fixed on their tiles;
    // the rest take the remaining tiles in order.
    std::vector<int> tile_of_partition(n_tiles, -1);
    std::vector<bool> tile_used(n_tiles, false);
    std::vector<int> movable;
    for (int p = 0; p < n_tiles; p++)
        if (merged.pin_of[p] >= 0) {
            tile_of_partition[p] = merged.pin_of[p];
            tile_used[merged.pin_of[p]] = true;
        } else {
            movable.push_back(p);
        }
    {
        int t = 0;
        for (int p : movable) {
            while (tile_used[t])
                t++;
            tile_of_partition[p] = t;
            tile_used[t] = true;
        }
    }

    // Profile-guided placement folds per-tile congestion penalties
    // into the cost model (see PlacementCost).
    const bool use_fb = !opts.feedback.empty();
    const PlacementCost cost(
        n_tiles, partition_traffic(g, merged, opts.crit_weight),
        machine, opts.feedback, merged.cost_of);

    int64_t swaps_evaluated = 0;
    // Candidate swaps are evaluated by the sparse delta, not a full
    // recompute; `cur` is carried incrementally.  Accept decisions
    // are on exact integer deltas, so the loops pick the same
    // placements as full-recompute versions would.
    auto delta_of = [&](int pi, int pj) {
        swaps_evaluated++;
        int64_t d = cost.swap_delta(tile_of_partition, pi, pj);
#ifndef NDEBUG
        int64_t pre = cost.total(tile_of_partition);
        std::swap(tile_of_partition[pi], tile_of_partition[pj]);
        int64_t post = cost.total(tile_of_partition);
        std::swap(tile_of_partition[pi], tile_of_partition[pj]);
        check(post - pre == d,
              "placement: swap delta disagrees with full recompute");
#endif
        return d;
    };

    if (opts.place_mode != PlaceMode::kArbitrary &&
        movable.size() > 1) {
        int64_t cur = cost.total(tile_of_partition);
        if (opts.place_mode == PlaceMode::kGreedySwap) {
            // Swapping two inert partitions changes nothing on any
            // assignment, so such a pair is never taken: an inert i
            // tries only the non-inert j > i, in the same ascending
            // order.  next_live[k] is the first position >= k whose
            // partition is not inert.
            const size_t m = movable.size();
            std::vector<size_t> next_live(m + 1, m);
            for (size_t k = m; k-- > 0;)
                next_live[k] =
                    cost.inert(movable[k]) ? next_live[k + 1] : k;
            bool improved = true;
            while (improved) {
                improved = false;
                for (size_t i = 0; i < m; i++) {
                    const bool inert_i = cost.inert(movable[i]);
                    auto next_j = [&](size_t j) {
                        return inert_i ? next_live[j] : j;
                    };
                    for (size_t j = next_j(i + 1); j < m;
                         j = next_j(j + 1)) {
                        int64_t d = delta_of(movable[i], movable[j]);
                        if (d < 0) {
                            std::swap(tile_of_partition[movable[i]],
                                      tile_of_partition[movable[j]]);
                            cur += d;
                            improved = true;
                        }
                    }
                }
            }
        } else { // kAnneal
            std::mt19937 rng(opts.seed);
            std::uniform_int_distribution<int> pick(
                0, static_cast<int>(movable.size()) - 1);
            std::uniform_real_distribution<double> unit(0.0, 1.0);
            // Feedback-mode costs carry the kPlaceDistUnit scale, so
            // the start temperature scales with them to keep the
            // accept probabilities comparable.
            double temp = use_fb ? 8.0 * kPlaceDistUnit : 8.0;
            std::vector<int> best = tile_of_partition;
            int64_t best_cost = cur;
            for (int iter = 0; iter < 4000; iter++) {
                int i = movable[pick(rng)];
                int j = movable[pick(rng)];
                if (i == j)
                    continue;
                int64_t d = delta_of(i, j);
                // The RNG is drawn only on uphill candidates, exactly
                // as the full-recompute loop did, so the accept
                // stream (and final placement) is unchanged.
                if (d <= 0 || unit(rng) < std::exp(-double(d) / temp)) {
                    std::swap(tile_of_partition[i],
                              tile_of_partition[j]);
                    cur += d;
                    if (cur < best_cost) {
                        best_cost = cur;
                        best = tile_of_partition;
                    }
                }
                temp *= 0.999;
            }
            tile_of_partition = best;
        }
    }

    Partition out;
    out.swaps_evaluated = swaps_evaluated;
    out.tile_of.assign(g.nodes().size(), 0);
    for (size_t i = 0; i < g.nodes().size(); i++)
        out.tile_of[i] = tile_of_partition[merged.cluster_of[i]];
    for (const TGEdge &e : g.edges())
        if (out.tile_of[e.from] != out.tile_of[e.to])
            out.cross_edges++;

    // Pins must be honored exactly.
    for (size_t i = 0; i < g.nodes().size(); i++)
        check(g.nodes()[i].pin < 0 ||
                  g.nodes()[i].pin == out.tile_of[i],
              "placement violated a pin");
    return out;
}

Partition
partition_taskgraph(const TaskGraph &g, const MachineConfig &machine,
                    const PartitionOptions &opts)
{
    Clustering c = cluster_taskgraph(g, machine, opts);
    Clustering m = merge_clusters(g, c, machine);
    return place_partitions(g, m, machine, opts);
}

} // namespace raw
