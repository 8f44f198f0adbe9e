/**
 * @file
 * Associative key/value arrays with true-LRU replacement: the one
 * storage building block of the LLC tag array (mem/Cache, with an
 * empty payload), the L1-I tag array (mem/InstMemory, with each fill's
 * ready cycle as payload) and every BTB design (main tables, victim
 * buffers, prefetch buffers, bundle stores).
 *
 * Keys are opaque 64-bit values (block addresses, branch PCs, region
 * numbers). Each way has a use stamp from a clock private to the
 * array; the clock is pre-incremented, so a valid way's stamp is >= 1
 * and a stamp of 0 marks the way invalid. A new key takes its set's
 * first invalid way, else its least recently used one.
 *
 * The probe strategy is part of the type, so no probe branches on it:
 *  - AssocCache<V> scans the key's set once per operation (the set
 *    index is the key's low bits above index_shift), testing each
 *    way's stamp before its key; the victim is the set's first lowest
 *    stamp. The L1-I, the LLC and the BTB main tables are a few ways
 *    wide, where one pass is the cheapest probe.
 *  - FullyAssocCache<V> is one set of any width (the victim, prefetch
 *    and overflow buffers). A WayIndex beside its keys and stamps maps
 *    each key to its way and keeps the ways in recency order, so find,
 *    peek, insert and invalidate are O(1) instead of a pass over all
 *    ways.
 * Both keep the same keys, stamps and payloads, so for one set they
 * return the same payloads and victims and forEach walks the same ways
 * in the same order.
 *
 * Keys, stamps and payloads are separate arrays (an empty payload type
 * stores none), all zeroed by calloc: a large array costs no memory
 * traffic until a probe reaches a set, because an untouched set reads
 * as all-invalid from zero pages the kernel maps on first use. So a
 * payload type must be ZeroFilled (its all-zero bytes are its
 * value-initialised object), or the array does not compile.
 */

#ifndef CFL_COMMON_ASSOC_HH
#define CFL_COMMON_ASSOC_HH

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
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

namespace detail
{

/** The @p T whose object representation is all zero bytes. */
template <typename T>
constexpr T
zeroBytesAs()
{
    return std::bit_cast<T>(std::array<unsigned char, sizeof(T)>{});
}

} // namespace detail

/**
 * True when calloc's zero bytes hold a value-initialised @p T, decided
 * from the type in a constant expression: @p T is trivially copyable
 * (so zeroed storage holds T objects without construction), and the T
 * that std::bit_cast makes of zero bytes compares equal to T{}. A type
 * with a pointer member, a non-constexpr constructor, a non-zero
 * default or no operator== is not ZeroFilled.
 */
template <typename T>
concept ZeroFilled =
    std::is_trivially_copyable_v<T> && std::equality_comparable<T> &&
    requires {
        typename std::bool_constant<(detail::zeroBytesAs<T>() == T{})>;
    } && bool(detail::zeroBytesAs<T>() == T{});

/**
 * The probe structures of a one-set array: an open-addressed key ->
 * way table (linear probing at a load of at most 1/4; erase shifts
 * the cluster back, so there are no tombstones), the valid ways in
 * recency order as a doubly linked list, and a bitmap of the invalid
 * ways. It stores way numbers only: keys stay in the array's own keys,
 * which every call that reads them takes as an argument.
 */
class WayIndex
{
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};

    explicit WayIndex(unsigned ways)
        : ways_(ways),
          shift_(64 - ceilLog2(4 * static_cast<std::uint64_t>(ways))),
          table_(std::size_t{1} << (64 - shift_)),
          prev_(ways), next_(ways), invalid_((ways + 63) / 64)
    {
        clear();
    }

    /** Where the table's probe for @p key starts (tests use it to
     *  build colliding keys). */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        shift_);
    }

    /** The way holding @p key, or kNone. */
    std::size_t
    find(const std::uint64_t *keys, std::uint64_t key) const
    {
        for (std::size_t pos = home(key);; pos = nextPos(pos)) {
            const std::uint32_t entry = table_[pos];
            if (entry == 0)
                return kNone;
            if (keys[entry - 1] == key)
                return entry - 1;
        }
    }

    /** The way a new key takes: the first invalid way, else the least
     *  recently used one. */
    std::size_t
    victim() const
    {
        if (invalidWays_ == 0)
            return tail_;
        std::size_t word = 0;
        while (invalid_[word] == 0)
            ++word;
        return word * 64 + std::countr_zero(invalid_[word]);
    }

    /** Invalid way @p slot now holds keys[slot], most recently used. */
    void
    link(const std::uint64_t *keys, std::size_t slot)
    {
        std::size_t pos = home(keys[slot]);
        while (table_[pos] != 0)
            pos = nextPos(pos);
        table_[pos] = static_cast<std::uint32_t>(slot + 1);
        invalid_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        --invalidWays_;
        pushFront(slot);
    }

    /** Way @p slot, which holds keys[slot], becomes invalid. */
    void
    unlink(const std::uint64_t *keys, std::size_t slot)
    {
        std::size_t hole = home(keys[slot]);
        while (table_[hole] != slot + 1)
            hole = nextPos(hole);
        // Backward-shift erase: walk the cluster after the hole and
        // move back every entry whose home does not lie cyclically in
        // (hole, pos], so each key stays reachable from its home.
        for (std::size_t pos = nextPos(hole); table_[pos] != 0;
             pos = nextPos(pos)) {
            const std::size_t h = home(keys[table_[pos] - 1]);
            const bool reachable = hole <= pos ? (hole < h && h <= pos)
                                               : (hole < h || h <= pos);
            if (!reachable) {
                table_[hole] = table_[pos];
                hole = pos;
            }
        }
        table_[hole] = 0;
        removeFromList(slot);
        invalid_[slot / 64] |= std::uint64_t{1} << (slot % 64);
        ++invalidWays_;
    }

    /** Make valid way @p slot the most recently used. */
    void
    touch(std::size_t slot)
    {
        if (slot == head_)
            return;
        removeFromList(slot);
        pushFront(slot);
    }

    /** Every way invalid. */
    void
    clear()
    {
        std::fill(table_.begin(), table_.end(), 0);
        head_ = tail_ = kNil;
        std::fill(invalid_.begin(), invalid_.end(), ~std::uint64_t{0});
        if (ways_ % 64 != 0)
            invalid_.back() = (std::uint64_t{1} << (ways_ % 64)) - 1;
        invalidWays_ = ways_;
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    std::size_t nextPos(std::size_t pos) const
    {
        return (pos + 1) & (table_.size() - 1);
    }

    void
    pushFront(std::size_t slot)
    {
        prev_[slot] = kNil;
        next_[slot] = head_;
        if (head_ != kNil)
            prev_[head_] = static_cast<std::uint32_t>(slot);
        else
            tail_ = static_cast<std::uint32_t>(slot);
        head_ = static_cast<std::uint32_t>(slot);
    }

    void
    removeFromList(std::size_t slot)
    {
        const std::uint32_t prev = prev_[slot];
        const std::uint32_t next = next_[slot];
        (prev != kNil ? next_[prev] : head_) = next;
        (next != kNil ? prev_[next] : tail_) = prev;
    }

    unsigned ways_;
    unsigned shift_;                    ///< 64 - log2(table size)
    std::vector<std::uint32_t> table_;  ///< way + 1; 0 = empty
    std::vector<std::uint32_t> prev_;   ///< toward the MRU end
    std::vector<std::uint32_t> next_;   ///< toward the LRU end
    std::uint32_t head_ = kNil;         ///< most recently used
    std::uint32_t tail_ = kNil;         ///< least recently used
    std::vector<std::uint64_t> invalid_;  ///< bit per invalid way
    std::size_t invalidWays_ = 0;
};

/**
 * Associative payload cache: set-associative and scanned, or with
 * @p kFullyAssociative one indexed set (use FullyAssocCache).
 */
template <typename Value, bool kFullyAssociative = false>
class AssocCache
{
    /** A tag-only array (empty payload) keeps no payload storage. */
    static constexpr bool kTagOnly = std::is_empty_v<Value>;

  public:
    /** @param sets number of sets (power of two)
     *  @param ways associativity
     *  @param index_shift low key bits skipped when computing the set */
    AssocCache(std::size_t sets, unsigned ways, unsigned index_shift = 0)
        requires(!kFullyAssociative)
        : sets_(sets), ways_(ways), indexShift_(index_shift)
    {
        cfl_assert(sets > 0 && isPowerOfTwo(sets),
                   "AssocCache sets must be a power of two");
        allocate();
    }

    /** One set of @p ways ways. */
    explicit AssocCache(unsigned ways)
        requires kFullyAssociative
        : sets_(1), ways_(ways), indexShift_(0), index_(ways)
    {
        allocate();
    }

    /** Find @p key; returns payload pointer or nullptr. Promotes LRU. */
    Value *
    find(std::uint64_t key, bool update_lru = true)
    {
        const std::size_t slot = lookup(key);
        if (slot == kNone)
            return nullptr;
        if (update_lru)
            touch(slot);
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
            touch(match);
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
        if constexpr (kFullyAssociative)
            index_.unlink(keys_.get(), slot);
        stamps_[slot] = 0;
        --validCount_;
        return std::move(*valueAt(slot));
    }

    void
    clear()
    {
        std::memset(stamps_.get(), 0, capacity() * sizeof(Word));
        validCount_ = 0;
        if constexpr (kFullyAssociative)
            index_.clear();
    }

    std::size_t size() const { return validCount_; }
    std::size_t capacity() const { return sets_ * ways_; }
    std::size_t numSets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Visit all valid (key, value) pairs in way order (template
     *  visitor: stats and checker walks don't box their callbacks). */
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
    static constexpr std::size_t kNone = WayIndex::kNone;

    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };
    template <typename T>
    using Zeroed = std::unique_ptr<T[], FreeDeleter>;

    /** @p count zeroed Ts from calloc: a large block arrives as
     *  untouched zero pages. */
    template <typename T>
    static Zeroed<T>
    zeroed(std::size_t count)
    {
        T *items = static_cast<T *>(std::calloc(count, sizeof(T)));
        if (items == nullptr)
            throw std::bad_alloc();
        return Zeroed<T>(items);
    }

    void
    allocate()
    {
        // Checked here, not at class scope: a payload nested in the
        // class that holds the array is complete (its defaults and
        // operator== usable) only once that class is.
        static_assert(kTagOnly || ZeroFilled<Value>,
                      "AssocCache payloads come zeroed from calloc: zero "
                      "bytes must make a value-initialised Value "
                      "(trivially copyable, constexpr ==, zero defaults)");
        static_assert(alignof(Value) <= alignof(std::max_align_t));
        cfl_assert(ways_ > 0, "AssocCache needs >= 1 way");
        keys_ = zeroed<Word>(capacity());
        stamps_ = zeroed<Word>(capacity());
        if constexpr (!kTagOnly)
            values_ = zeroed<Value>(capacity());
    }

    struct Scan
    {
        std::size_t match;  ///< slot holding the key, or kNone
        std::size_t victim; ///< where a new key goes (if no match)
    };

    std::size_t
    setBase(std::uint64_t key) const
    {
        return ((key >> indexShift_) & (sets_ - 1)) * ways_;
    }

    std::size_t
    lookup(std::uint64_t key) const
    {
        if constexpr (kFullyAssociative) {
            return index_.find(keys_.get(), key);
        } else {
            const std::size_t base = setBase(key);
            for (std::size_t slot = base; slot < base + ways_; ++slot) {
                // Stamp first: an invalid way's key is never read, so
                // an untouched keys page is first touched by the
                // insert that writes it.
                if (stamps_[slot] != 0 && keys_[slot] == key)
                    return slot;
            }
            return kNone;
        }
    }

    /** Where @p key is, and which way a new key would take. */
    Scan
    scan(std::uint64_t key) const
    {
        if constexpr (kFullyAssociative) {
            const std::size_t match = index_.find(keys_.get(), key);
            return {match, match == kNone ? index_.victim() : kNone};
        } else {
            // One pass: the match, and the set's first lowest stamp.
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
    }

    void
    touch(std::size_t slot)
    {
        stamps_[slot] = ++useClock_;
        if constexpr (kFullyAssociative)
            index_.touch(slot);
    }

    std::optional<std::pair<std::uint64_t, Value>>
    place(std::size_t slot, std::uint64_t key, Value value)
    {
        std::optional<std::pair<std::uint64_t, Value>> evicted;
        if (stamps_[slot] != 0) {
            evicted = std::make_pair(keys_[slot], std::move(*valueAt(slot)));
            if constexpr (kFullyAssociative)
                index_.unlink(keys_.get(), slot);
        } else {
            ++validCount_;
        }
        keys_[slot] = key;
        *valueAt(slot) = std::move(value);
        stamps_[slot] = ++useClock_;
        if constexpr (kFullyAssociative)
            index_.link(keys_.get(), slot);
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

    struct NoIndex
    {
    };

    std::size_t sets_;
    unsigned ways_;
    unsigned indexShift_;
    std::uint64_t useClock_ = 0;
    std::size_t validCount_ = 0;
    Zeroed<Word> keys_;
    Zeroed<Word> stamps_;  ///< 0 = invalid, else the way's last use
    Zeroed<Value> values_;  ///< none for a tag-only array
    [[no_unique_address]] std::conditional_t<kFullyAssociative, WayIndex,
                                             NoIndex> index_;
};

/** One set of any width, probed in O(1) through a WayIndex. */
template <typename Value>
using FullyAssocCache = AssocCache<Value, true>;

} // namespace cfl

#endif // CFL_COMMON_ASSOC_HH
