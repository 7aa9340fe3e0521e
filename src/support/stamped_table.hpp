#ifndef RAW_SUPPORT_STAMPED_TABLE_HPP
#define RAW_SUPPORT_STAMPED_TABLE_HPP

/**
 * @file
 * Dense index-keyed table with constant-time clear.
 *
 * An entry is present only while its stamp equals the table's epoch,
 * so clear() bumps the epoch instead of touching memory.  Kept alive
 * across calls (one per worker thread, or one per pass over many
 * tiles) it replaces a hash map keyed by value or node id with an
 * array index, and allocates nothing once grown.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

namespace raw {

template <typename T>
class StampedTable
{
  public:
    /** Empty the table and make keys 0 .. @p n - 1 usable. */
    void clear(size_t n)
    {
        if (stamp_.size() < n) {
            stamp_.resize(n, 0);
            val_.resize(n);
        }
        if (++epoch_ == 0) { // wrapped: stale stamps could match
            std::fill(stamp_.begin(), stamp_.end(), 0);
            epoch_ = 1;
        }
    }

    bool has(size_t k) const { return stamp_[k] == epoch_; }

    /** Entry @p k, inserted as @p init if absent. */
    T &get(size_t k, const T &init = T())
    {
        if (stamp_[k] != epoch_) {
            stamp_[k] = epoch_;
            val_[k] = init;
        }
        return val_[k];
    }

    /** Entry @p k; must be present. */
    const T &at(size_t k) const { return val_[k]; }

  private:
    std::vector<uint32_t> stamp_;
    std::vector<T> val_;
    uint32_t epoch_ = 0;
};

} // namespace raw

#endif // RAW_SUPPORT_STAMPED_TABLE_HPP
