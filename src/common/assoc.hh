/**
 * @file
 * Set-associative key/value array with true-LRU replacement: the one
 * storage building block of the L1-I and LLC tag arrays (mem/Cache,
 * with an empty payload) and of every BTB design (main tables, victim
 * buffers, prefetch buffers, bundle stores).
 *
 * Keys are opaque 64-bit values (block addresses, branch PCs, region
 * numbers); the set index is the key's low bits above index_shift.
 * Each way has a use stamp from a clock private to the array; the
 * clock is pre-incremented, so a valid way's stamp is >= 1 and a stamp
 * of 0 marks the way invalid. The victim is the set's first way with
 * the lowest stamp: its first invalid way, else its least recently
 * used one.
 *
 * Keys, stamps and payloads are separate arrays (an empty payload type
 * stores none). Keys and stamps come zeroed from calloc, so a large
 * array costs no memory traffic until a probe reaches a set: an
 * untouched set reads as all-invalid from zero pages the kernel maps
 * on first use. Every operation scans its set once.
 */

#ifndef CFL_COMMON_ASSOC_HH
#define CFL_COMMON_ASSOC_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
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
          values_(kTagOnly ? 0 : sets * ways)
    {
        cfl_assert(sets > 0 && isPowerOfTwo(sets),
                   "AssocCache sets must be a power of two");
        cfl_assert(ways > 0, "AssocCache needs >= 1 way");
        keys_ = zeroedWords(capacity());
        stamps_ = zeroedWords(capacity());
    }

    /** Find @p key; returns payload pointer or nullptr. Promotes LRU. */
    Value *
    find(std::uint64_t key, bool update_lru = true)
    {
        const std::size_t slot = lookup(key);
        if (slot == kNone)
            return nullptr;
        if (update_lru)
            stamps_[slot] = ++useClock_;
        return valueAt(slot);
    }

    /** Const probe without LRU update. */
    const Value *
    peek(std::uint64_t key) const
    {
        const std::size_t slot = lookup(key);
        return slot == kNone ? nullptr : valueAt(slot);
    }

    /**
     * Insert (key, value); if the key exists its value is replaced. On a
     * set-full insertion the LRU victim is evicted and returned.
     */
    std::optional<std::pair<std::uint64_t, Value>>
    insert(std::uint64_t key, Value value)
    {
        const auto [match, victim] = scan(key);
        if (match != kNone) {
            *valueAt(match) = std::move(value);
            stamps_[match] = ++useClock_;
            return std::nullopt;
        }
        return place(victim, key, std::move(value));
    }

    /** Remove @p key; returns its payload if it was present. */
    std::optional<Value>
    invalidate(std::uint64_t key)
    {
        const std::size_t slot = lookup(key);
        if (slot == kNone)
            return std::nullopt;
        stamps_[slot] = 0;
        --validCount_;
        return std::move(*valueAt(slot));
    }

    void
    clear()
    {
        std::memset(stamps_.get(), 0, capacity() * sizeof(Word));
        validCount_ = 0;
    }

    std::size_t size() const { return validCount_; }
    std::size_t capacity() const { return sets_ * ways_; }
    std::size_t numSets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Visit all valid (key, value) pairs (template visitor: stats and
     *  checker walks don't box their callbacks). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t slot = 0; slot < capacity(); ++slot) {
            if (stamps_[slot] != 0)
                fn(keys_[slot], *valueAt(slot));
        }
    }

  private:
    using Word = std::uint64_t;

    struct FreeWords
    {
        void operator()(Word *words) const { std::free(words); }
    };
    using Words = std::unique_ptr<Word[], FreeWords>;

    /** A tag-only array (empty payload) keeps no payload storage. */
    static constexpr bool kTagOnly = std::is_empty_v<Value>;
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** @p count zeroed words from calloc: a large block arrives as
     *  untouched zero pages. */
    static Words
    zeroedWords(std::size_t count)
    {
        Word *words = static_cast<Word *>(std::calloc(count, sizeof(Word)));
        if (words == nullptr)
            throw std::bad_alloc();
        return Words(words);
    }

    struct Scan
    {
        std::size_t match;  ///< slot holding the key, or kNone
        std::size_t victim; ///< the set's first lowest-stamp slot
    };

    std::size_t
    setBase(std::uint64_t key) const
    {
        return ((key >> indexShift_) & (sets_ - 1)) * ways_;
    }

    std::size_t
    lookup(std::uint64_t key) const
    {
        const std::size_t base = setBase(key);
        for (std::size_t slot = base; slot < base + ways_; ++slot) {
            // Stamp first: an invalid way's key is never read, so an
            // untouched keys page is first touched by the insert that
            // writes it.
            if (stamps_[slot] != 0 && keys_[slot] == key)
                return slot;
        }
        return kNone;
    }

    /** One pass over @p key's set: where it is, and which way a new
     *  key would take. */
    Scan
    scan(std::uint64_t key) const
    {
        const std::size_t base = setBase(key);
        Scan out{kNone, base};
        for (std::size_t slot = base; slot < base + ways_; ++slot) {
            if (stamps_[slot] != 0 && keys_[slot] == key)
                out.match = slot;
            if (stamps_[slot] < stamps_[out.victim])
                out.victim = slot;
        }
        return out;
    }

    std::optional<std::pair<std::uint64_t, Value>>
    place(std::size_t slot, std::uint64_t key, Value value)
    {
        std::optional<std::pair<std::uint64_t, Value>> evicted;
        if (stamps_[slot] != 0)
            evicted = std::make_pair(keys_[slot], std::move(*valueAt(slot)));
        else
            ++validCount_;
        keys_[slot] = key;
        *valueAt(slot) = std::move(value);
        stamps_[slot] = ++useClock_;
        return evicted;
    }

    Value *
    valueAt(std::size_t slot)
    {
        if constexpr (kTagOnly) {
            static Value none;
            return &none;
        } else {
            return &values_[slot];
        }
    }

    const Value *
    valueAt(std::size_t slot) const
    {
        return const_cast<AssocCache *>(this)->valueAt(slot);
    }

    std::size_t sets_;
    unsigned ways_;
    unsigned indexShift_;
    std::uint64_t useClock_ = 0;
    std::size_t validCount_ = 0;
    Words keys_;
    Words stamps_;  ///< 0 = invalid, else the way's last use
    std::vector<Value> values_;
};

} // namespace cfl

#endif // CFL_COMMON_ASSOC_HH
