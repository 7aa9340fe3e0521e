#ifndef RAW_SIM_CHECKER_HPP
#define RAW_SIM_CHECKER_HPP

/**
 * @file
 * Opt-in runtime self-checking of the static-ordering guarantee
 * (Appendix A of the paper).
 *
 * The correctness argument for RAWCC is that a static schedule binds
 * every communication *statically*: the k-th word consumed by a given
 * static program point (a ROUTE input of a switch, or a port operand
 * of a processor instruction) always originates from the same static
 * producer point, no matter how dynamic latency perturbs timing.  The
 * test suite checks this end to end by comparing final results; the
 * RuntimeChecker verifies it *live*, word by word, while a (possibly
 * fault-injected) simulation runs:
 *
 *  - Word provenance.  Every word a processor pushes into the static
 *    network is tagged with its origin (tile, pc).  Shadow queues
 *    mirror every port FIFO, so the tag travels with the word through
 *    arbitrarily long switch routes.  At every consumption point the
 *    checker verifies the origin matches the binding established the
 *    first time that point consumed a word; a change of producer under
 *    fault injection is exactly a violation of the static-ordering
 *    property.
 *
 *  - Provenance stream hash.  Each consumption point also maintains a
 *    running FNV hash of its (origin, value) stream.  The combined
 *    hash is order-independent *across* points but order-exact
 *    *within* each point, so it is identical for every run of the same
 *    program regardless of injected latency — the fault campaign
 *    asserts this across all points of a sweep.
 *
 *  - FIFO occupancy bounds.  Shadow-queue depth is compared against
 *    the real ring-buffer occupancy at every shadowed operation, and
 *    the ring invariants are audited, in release builds too.  After
 *    every dynamic-network plane step the plane's occupancy
 *    bookkeeping is audited against its input buffers as well.
 *
 * Violations are reported as structured CheckFailure records in
 * SimResult::check_failures (bounded; the simulation continues), not
 * as bare panics, so a campaign can aggregate them.
 *
 * When the checker is disabled the simulator takes none of these
 * paths and results are byte-identical to a checker-free build.
 */

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace raw {

class Fifo;
struct DynPlane;

/** Which runtime self-checks to enable (all off by default). */
struct CheckConfig
{
    /** Word-provenance tagging + static-binding verification. */
    bool provenance = false;
    /** FIFO occupancy-bound audits (active in release builds). */
    bool fifo_bounds = false;

    bool enabled() const { return provenance || fifo_bounds; }
};

/** Origin of a word in the static network: producing tile and pc. */
struct WordProv
{
    int tile = -1;
    int64_t pc = -1;

    bool operator==(const WordProv &o) const
    {
        return tile == o.tile && pc == o.pc;
    }
};

/** One structured self-check diagnostic. */
struct CheckFailure
{
    /** "provenance" | "fifo-bounds" | "shadow-underflow". */
    std::string kind;
    /** Tile of the consuming/checked unit. */
    int tile = 0;
    /** Static program point (pc) at the consumer. */
    int64_t pc = 0;
    /** Simulated cycle of detection. */
    int64_t cycle = 0;
    std::string detail;

    std::string to_string() const;
};

/** Live verifier the Simulator drives when checking is enabled. */
class RuntimeChecker
{
  public:
    RuntimeChecker(int n_tiles, const CheckConfig &cfg);

    // -- shadow-queue mirroring (called at the exact push/pop sites)
    /** Processor at (tile, pc) pushed a word into its p2s port. */
    void send_p2s(int tile, int64_t pc, const Fifo &f, int64_t cycle);
    /** A switch route consumed the head of tile's p2s port. */
    WordProv take_p2s(int tile, const Fifo &f, int64_t cycle);
    /** A switch route delivered a word into tile's s2p port. */
    void put_s2p(int tile, WordProv p, const Fifo &f, int64_t cycle);
    /** Processor consumed the head of tile's s2p port. */
    WordProv take_s2p(int tile, const Fifo &f, int64_t cycle);
    /** A switch route pushed into tile's outgoing link toward dir. */
    void put_link(int tile, int dir, WordProv p, const Fifo &f,
                  int64_t cycle);
    /** A switch route consumed from tile's outgoing link (dir). */
    WordProv take_link(int tile, int dir, const Fifo &f,
                       int64_t cycle);

    /**
     * Audit a dynamic-network plane after a step: every tile's word
     * count equals the occupancy of its five input buffers, its
     * occupied bit is set exactly when that count is non-zero, and
     * the counts sum to the plane's resident total.
     */
    void audit_plane(const DynPlane &plane, int64_t cycle);

    // -- static-binding verification at consumption points
    /** Proc instr (tile, pc) consumed @p origin via operand @p slot. */
    void consume_proc(int tile, int64_t pc, int slot, WordProv origin,
                      uint32_t value, int64_t cycle);
    /** Switch ROUTE (tile, pc) pair @p pair consumed @p origin. */
    void consume_switch(int tile, int64_t pc, int pair,
                        WordProv origin, uint32_t value, int64_t cycle);

    /**
     * Combined provenance-stream hash: XOR over consumption points of
     * each point's order-exact FNV stream hash.  Timing-invariant for
     * a correct static schedule; 0 until something was consumed.
     */
    uint64_t provenance_hash() const;

    /** Total violations seen (may exceed recorded failures). */
    int64_t failure_count() const { return total_failures_; }
    /** The first recorded failures (bounded at kMaxRecorded). */
    std::vector<CheckFailure> take_failures();

    static constexpr int kMaxRecorded = 32;

  private:
    /** Binding + stream hash of one static consumption point. */
    struct Point
    {
        bool bound = false;
        WordProv first;
        uint64_t hash = 1469598103934665603ULL; // FNV offset basis
        int64_t count = 0;
    };

    void fail(const std::string &kind, int tile, int64_t pc,
              int64_t cycle, const std::string &detail);
    void audit(const Fifo &f, size_t shadow_depth, const char *what,
               int tile, int64_t cycle);
    WordProv take(std::deque<WordProv> &q, const char *what, int tile,
                  int64_t cycle);
    void consume(std::unordered_map<int64_t, Point> &points,
                 const char *unit, int tile, int64_t pc, int64_t key,
                 WordProv origin, uint32_t value, int64_t cycle);

    CheckConfig cfg_;
    // Shadow provenance queues, one per static-network FIFO.
    std::vector<std::deque<WordProv>> p2s_, s2p_;
    std::vector<std::vector<std::deque<WordProv>>> links_;
    // Per-tile binding tables, keyed by static consumption point.
    std::vector<std::unordered_map<int64_t, Point>> proc_points_;
    std::vector<std::unordered_map<int64_t, Point>> switch_points_;
    std::vector<CheckFailure> failures_;
    int64_t total_failures_ = 0;
};

} // namespace raw

#endif // RAW_SIM_CHECKER_HPP
