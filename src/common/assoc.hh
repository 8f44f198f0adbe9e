/**
 * @file
 * Set-associative key/value array with true-LRU replacement: the one
 * storage building block of the L1-I and LLC tag arrays (mem/Cache,
 * with an empty payload) and of every BTB design (main tables, victim
 * buffers, prefetch buffers, bundle stores).
 *
 * Keys are opaque 64-bit values (block addresses, branch PCs, region
 * numbers); the set index is the key's low bits above index_shift.
 * Victim choice is the set's first invalid way, else its least
 * recently used one, by a use clock private to each array.
 */

#ifndef CFL_COMMON_ASSOC_HH
#define CFL_COMMON_ASSOC_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace cfl
{

/** Sets of an array holding @p entries in @p ways ways; @p entries
 *  must divide by @p ways (the AssocCache constructor checks that the
 *  quotient is a power of two). */
inline std::size_t
assocSets(std::size_t entries, unsigned ways)
{
    cfl_assert(ways > 0 && entries % ways == 0,
               "%zu entries do not divide by %u ways", entries, ways);
    return entries / ways;
}

/** Set-associative payload cache; fully associative when sets == 1. */
template <typename Value>
class AssocCache
{
  public:
    /** @param sets number of sets (power of two)
     *  @param ways associativity
     *  @param index_shift low key bits skipped when computing the set */
    AssocCache(std::size_t sets, unsigned ways, unsigned index_shift = 0)
        : sets_(sets), ways_(ways), indexShift_(index_shift),
          entries_(sets * ways)
    {
        cfl_assert(sets > 0 && isPowerOfTwo(sets),
                   "AssocCache sets must be a power of two");
        cfl_assert(ways > 0, "AssocCache needs >= 1 way");
    }

    /** Find @p key; returns payload pointer or nullptr. Promotes LRU. */
    Value *
    find(std::uint64_t key, bool update_lru = true)
    {
        Entry *e = findEntry(key);
        if (e == nullptr)
            return nullptr;
        if (update_lru)
            e->lastUse = ++useClock_;
        return &e->value;
    }

    /** Const probe without LRU update. */
    const Value *
    peek(std::uint64_t key) const
    {
        const Entry *e =
            const_cast<AssocCache *>(this)->findEntry(key);
        return e == nullptr ? nullptr : &e->value;
    }

    /**
     * Insert (key, value); if the key exists its value is replaced. On a
     * set-full insertion the LRU victim is evicted and returned.
     */
    std::optional<std::pair<std::uint64_t, Value>>
    insert(std::uint64_t key, Value value)
    {
        Entry *existing = findEntry(key);
        if (existing != nullptr) {
            existing->value = std::move(value);
            existing->lastUse = ++useClock_;
            return std::nullopt;
        }

        Entry *base = &entries_[setIndex(key) * ways_];
        Entry *victim = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (victim == nullptr || base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }

        std::optional<std::pair<std::uint64_t, Value>> evicted;
        if (victim->valid)
            evicted = std::make_pair(victim->key, std::move(victim->value));
        else
            ++validCount_;
        victim->key = key;
        victim->value = std::move(value);
        victim->valid = true;
        victim->lastUse = ++useClock_;
        return evicted;
    }

    /** Remove @p key; returns its payload if it was present. */
    std::optional<Value>
    invalidate(std::uint64_t key)
    {
        Entry *e = findEntry(key);
        if (e == nullptr)
            return std::nullopt;
        e->valid = false;
        --validCount_;
        return std::move(e->value);
    }

    void
    clear()
    {
        for (Entry &e : entries_)
            e.valid = false;
        validCount_ = 0;
    }

    std::size_t size() const { return validCount_; }
    std::size_t capacity() const { return entries_.size(); }
    std::size_t numSets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Visit all valid (key, value) pairs (template visitor: stats and
     *  checker walks don't box their callbacks). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Entry &e : entries_) {
            if (e.valid)
                fn(e.key, e.value);
        }
    }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        Value value{};
        bool valid = false;
    };

    std::size_t
    setIndex(std::uint64_t key) const
    {
        return (key >> indexShift_) & (sets_ - 1);
    }

    Entry *
    findEntry(std::uint64_t key)
    {
        Entry *base = &entries_[setIndex(key) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].key == key)
                return &base[w];
        }
        return nullptr;
    }

    std::size_t sets_;
    unsigned ways_;
    unsigned indexShift_;
    std::uint64_t useClock_ = 0;
    std::size_t validCount_ = 0;
    std::vector<Entry> entries_;
};

} // namespace cfl

#endif // CFL_COMMON_ASSOC_HH
