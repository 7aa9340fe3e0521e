#ifndef RAW_ANALYSIS_TASKGRAPH_HPP
#define RAW_ANALYSIS_TASKGRAPH_HPP

/**
 * @file
 * Task graph builder (Section 3.3, Figure 6b).
 *
 * For one renamed basic block, builds the DAG the instruction
 * partitioner and event scheduler operate on.  Nodes are instructions
 * (labelled with Table 1 cycle costs) plus zero-cost *import* nodes
 * representing a variable's live-in value at its home tile.  Edges are
 * value flow (one word, the paper's implicit unit edge label) or
 * ordering-only constraints (memory dependences, print ordering,
 * import-before-export anti-dependences).
 *
 * Memory references with a statically known home tile are pinned to
 * that tile; the builder also disambiguates references whose index
 * congruences prove them disjoint (exact unequal indices, or distinct
 * residues modulo the interleaving factor).
 */

#include <unordered_map>
#include <vector>

#include "transform/congruence.hpp"
#include "analysis/liveness.hpp"
#include "analysis/replication.hpp"
#include "ir/function.hpp"
#include "machine/machine.hpp"
#include "support/stamped_table.hpp"

namespace raw {

/** Placement facts from the data partitioner. */
struct HomeMap
{
    /** Home tile per value id (valid for persistent vars only). */
    std::vector<int> var_home;
    /** Global word base address per array id. */
    std::vector<int64_t> array_base;
    int n_tiles = 1;

    /** Home tile of element @p idx of @p array. */
    int
    element_home(int array, int64_t idx) const
    {
        return static_cast<int>(
            floor_mod(array_base[array] + idx, n_tiles));
    }
};

/** Task graph node kinds. */
enum class TGKind : uint8_t {
    kInstr,  ///< a real instruction of the block
    kImport, ///< live-in value of a variable, at its home tile
};

/** One task graph node. */
struct TGNode
{
    TGKind kind = TGKind::kInstr;
    /** Instruction index within the block (kInstr only). */
    int instr = -1;
    /** Variable (kImport only). */
    ValueId var = kNoValue;
    /** Estimated cycles (Table 1); imports are free. */
    int cost = 0;
    /** Required tile, or -1 if the partitioner may choose. */
    int pin = -1;
    /** Value this node makes available (kNoValue if none). */
    ValueId produces = kNoValue;
};

/** Dependence edge kinds. */
enum class DepKind : uint8_t {
    kData,  ///< a word flows from producer to consumer
    kOrder, ///< semantic ordering (memory, print); token if cross-tile
    kAnti,  ///< register anti-dependence; only binds on the same tile
};

/** One dependence edge. */
struct TGEdge
{
    int from = -1;
    int to = -1;
    DepKind kind = DepKind::kData;
};

/** The per-block task graph. */
class TaskGraph
{
  public:
    TaskGraph(const Function &fn, int block_id,
              const MachineConfig &machine, const CongruenceMap &cong,
              const ReplicationAnalysis &repl, const VarLiveness &live,
              const HomeMap &homes);

    /**
     * A graph of @p nodes with no edges yet, to be built with
     * add_edge (synthetic graphs for tests).
     */
    explicit TaskGraph(std::vector<TGNode> nodes);

    /**
     * Add the edge @p from -> @p to.  A pair already present keeps
     * one edge with the strongest kind (data > order > anti), and
     * self-edges are dropped.  The duplicate check costs O(1) while
     * consecutive calls share a source or a target, as the builders'
     * runs do; a new run first loads the edges of whichever endpoint
     * has fewer.
     * Only while building: a graph from the block constructor is
     * final.
     */
    void add_edge(int from, int to, DepKind kind);

    const std::vector<TGNode> &nodes() const { return nodes_; }
    const std::vector<TGEdge> &edges() const { return edges_; }
    const std::vector<int> &succs(int n) const { return succs_[n]; }
    const std::vector<int> &preds(int n) const { return preds_[n]; }
    /** Edge indices leaving node @p n. */
    const std::vector<int> &out_edges(int n) const { return out_[n]; }

    /**
     * Block instruction indices that are NOT nodes (replicated
     * control instructions handled by the orchestrater's control
     * tail, dead write-backs, and the terminator).
     */
    const std::vector<int> &skipped_instrs() const { return skipped_; }

    /** Node producing @p value, or -1. */
    int producer_of(ValueId v) const;

  private:
    void index_producers();

    std::vector<TGNode> nodes_;
    std::vector<TGEdge> edges_;
    std::vector<std::vector<int>> succs_, preds_, out_;
    std::vector<int> skipped_;
    // Keyed by value id; sized by this block's node count, not by the
    // whole function's value count (graphs for every block are alive
    // at once in the orchestrater).
    std::unordered_map<ValueId, int> producer_;
    // add_edge's dedup, kept only while building: each node's
    // in-edges as a list threaded through the edge indices (head per
    // node, next per edge), and the edge index per far end of the
    // anchor node's out-edges (anchor_out_) or in-edges.
    std::vector<int> in_head_, in_next_;
    StampedTable<int> edge_slot_;
    int anchor_ = -1;
    bool anchor_out_ = true;
};

} // namespace raw

#endif // RAW_ANALYSIS_TASKGRAPH_HPP
