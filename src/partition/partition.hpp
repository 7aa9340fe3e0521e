#ifndef RAW_PARTITION_PARTITION_HPP
#define RAW_PARTITION_PARTITION_HPP

/**
 * @file
 * Instruction partitioner (Section 4.1): clustering, merging,
 * placement.
 *
 *  - *Clustering* groups instructions whose parallelism is too fine to
 *    pay for communication, using the Dominant Sequence Clustering
 *    heuristic of Yang & Gerasoulis under an idealized fully-connected
 *    interconnect with uniform latency.
 *  - *Merging* reduces the clusters to N partitions using the load
 *    balance heuristic: visit clusters in decreasing size and merge
 *    each into the least-loaded partition.
 *  - *Placement* drops the idealized-interconnect assumption and maps
 *    partitions onto physical mesh tiles, greedily swapping pairs to
 *    reduce total communication hops (optionally refined by simulated
 *    annealing).
 *
 * Nodes pinned to a tile (static memory references, variable homes)
 * constrain all three phases.
 */

#include <vector>

#include "analysis/taskgraph.hpp"
#include "machine/machine.hpp"

namespace raw {

/** Clustering algorithm selection (for ablation benches). */
enum class ClusterMode : uint8_t {
    kDSC,        ///< Dominant Sequence Clustering (the paper's choice)
    kUnitNodes,  ///< no clustering: every node its own cluster
};

/** Placement algorithm selection (for ablation benches). */
enum class PlaceMode : uint8_t {
    kGreedySwap, ///< greedy pairwise improvement (the paper's choice)
    kAnneal,     ///< simulated annealing refinement
    kArbitrary,  ///< identity mapping, no optimization
};

/** Distance scale of the feedback-aware placement cost (one hop). */
constexpr int64_t kPlaceDistUnit = 8;
/** Largest per-tile penalty: one fully-contended tile ~ one hop. */
constexpr int64_t kPlacePenaltyMax = 8;

/**
 * Per-tile congestion penalties observed in a profiling run
 * (profile-guided placement, --pgo).  Empty vectors mean "no
 * feedback", and placement then uses the pure hop-distance cost,
 * bit-identical to a build without PGO.  With feedback, each word
 * touching tile t pays comm_penalty[t] on top of kPlaceDistUnit per
 * hop, and each unit of compute placed on t pays proc_penalty[t] —
 * both normalized to 0..kPlacePenaltyMax — so movable partitions
 * drift away from the switches and processors the profiled run
 * actually saturated (typically regions around pinned memory homes).
 */
struct PlacementFeedback
{
    /** Per-tile switch-congestion penalty (empty = none). */
    std::vector<int64_t> comm_penalty;
    /** Per-tile processor-occupancy penalty (empty = none). */
    std::vector<int64_t> proc_penalty;

    bool empty() const
    {
        return comm_penalty.empty() && proc_penalty.empty();
    }
};

/** Options for the partitioner. */
struct PartitionOptions
{
    ClusterMode cluster_mode = ClusterMode::kDSC;
    PlaceMode place_mode = PlaceMode::kGreedySwap;
    /** RNG seed for annealing / tie-breaking. */
    uint32_t seed = 1;
    /** Profiled congestion penalties (PGO); empty = distance only. */
    PlacementFeedback feedback;
    /**
     * Criticality-weighted placement traffic (PGO): weight each
     * cross-partition edge by how close it sits to the task graph's
     * critical path, so placement shortens the hops that actually
     * gate the schedule instead of treating every word equally.  An
     * edge with zero slack counts (1 + crit_weight) times; an edge
     * with maximal slack counts once.  0 (default) keeps the
     * seed's uniform word counts bit-identical.
     */
    int crit_weight = 0;
};

/** Intermediate result of the clustering phase. */
struct Clustering
{
    /** Cluster id per node. */
    std::vector<int> cluster_of;
    /** Number of clusters. */
    int n_clusters = 0;
    /** Required tile per cluster (-1 if free). */
    std::vector<int> pin_of;
    /** Total computation cost per cluster. */
    std::vector<int64_t> cost_of;
};

/** Final result: a tile for every task graph node. */
struct Partition
{
    std::vector<int> tile_of;
    /** Number of edges whose endpoints ended up on different tiles. */
    int cross_edges = 0;
    /**
     * Candidate swaps evaluated during placement (perf tracking).
     * Greedy placement does not evaluate pairs of inert partitions,
     * whose delta is provably 0 (see PlacementCost::inert).
     */
    int64_t swaps_evaluated = 0;
};

/** Words exchanged between two partitions (either direction). */
struct Traffic
{
    int a;
    int b;
    int words;
};

/**
 * Cost model of the placement swap search.
 *
 * The search only moves partitions between tiles; the symmetric
 * partition-to-partition word traffic stays fixed.  So it is stored
 * once per block as sparse rows of (partition, words) pairs with their
 * row sums, built straight from the (a, b, words) contributions, and
 * each tile's mesh row and column is tabulated.  A swap is then
 * evaluated in O(deg_i + deg_j) over the two partitions' nonzero
 * traffic instead of O(n) over every partition: at large meshes most
 * rows are empty, and most candidate swaps exchange no traffic at
 * all.
 *
 * Without feedback the cost is the sum over partition pairs of
 * traffic x mesh distance.  With PGO feedback each word pays
 * kPlaceDistUnit per hop plus the comm penalty of both endpoint
 * tiles, and each partition's compute cost / kPlacePenaltyMax pays
 * its tile's proc penalty.  Deltas are exact integers, so the search
 * accepts the same swaps as one built on full recomputes.
 */
class PlacementCost
{
  public:
    /**
     * @p traffic lists word contributions between @p n_parts
     * partitions; repeated pairs accumulate and a == b entries are
     * ignored.  @p part_cost is the compute per partition (feedback
     * only).
     */
    PlacementCost(int n_parts, const std::vector<Traffic> &traffic,
                  const MachineConfig &machine,
                  const PlacementFeedback &feedback,
                  const std::vector<int64_t> &part_cost);

    /** Full cost of mapping partition p onto tile_of_partition[p]. */
    int64_t total(const std::vector<int> &tile_of_partition) const;

    /**
     * Cost change from swapping the tiles of partitions @p i and
     * @p j.  Only terms touching i or j change, and the w[i][j] term
     * is invariant because mesh distance is symmetric.
     */
    int64_t swap_delta(const std::vector<int> &tile_of_partition, int i,
                       int j) const;

    /**
     * True when partition @p p's swap delta with any other inert
     * partition is 0 on every assignment: it exchanges no words and,
     * with feedback, carries no scaled compute.
     */
    bool inert(int p) const
    {
        return row_start_[p] == row_start_[p + 1] &&
               (!use_fb_ || comp_[p] == 0);
    }

  private:
    struct Entry
    {
        int part;
        int words;
    };

    int distance(int a, int b) const
    {
        int dr = tile_row_[a] - tile_row_[b];
        int dc = tile_col_[a] - tile_col_[b];
        return (dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc);
    }

    /** CSR rows of the traffic without the diagonal, one entry per
     *  partner: row p is entries_[row_start_[p] .. row_start_[p + 1]). */
    std::vector<int> row_start_;
    std::vector<Entry> entries_;
    std::vector<int64_t> row_sum_;
    std::vector<int> tile_row_, tile_col_;
    bool use_fb_ = false;
    /** Feedback only: per-tile penalties and scaled compute. */
    std::vector<int64_t> pen_comm_, pen_proc_, comp_;
};

/** Phase 1: cluster @p g (uniform-latency model). */
Clustering cluster_taskgraph(const TaskGraph &g,
                             const MachineConfig &machine,
                             const PartitionOptions &opts);

/**
 * Phase 2: merge clusters into at most @p machine.n_tiles partitions
 * (load balance heuristic).  Returns a new Clustering whose ids are
 * partition ids, with pins propagated.
 */
Clustering merge_clusters(const TaskGraph &g, const Clustering &c,
                          const MachineConfig &machine);

/** Phase 3: map partitions onto tiles and produce the final result. */
Partition place_partitions(const TaskGraph &g, const Clustering &merged,
                           const MachineConfig &machine,
                           const PartitionOptions &opts);

/** All three phases. */
Partition partition_taskgraph(const TaskGraph &g,
                              const MachineConfig &machine,
                              const PartitionOptions &opts);

} // namespace raw

#endif // RAW_PARTITION_PARTITION_HPP
