/**
 * @file
 * Open-addressed hash map from 64-bit keys to small values.
 *
 * The per-instruction loop keys several tables by packed integers (block
 * addresses, branch PCs): the L1-I in-flight MSHR map, SHIFT's history
 * index, the Table-2 residency tracker, and the engine's loop counters.
 * std::unordered_map allocates a node per insert, which puts malloc/free
 * on the steady-state path as entries churn. FlatMap stores slots inline
 * in one array with linear probing; insert/erase never allocate except
 * when the table doubles, so a warmed table runs allocation-free.
 *
 * Semantics match the unordered_map uses it replaces: unique 64-bit keys
 * (any value, including 0), default-constructed values on operator[],
 * and unordered iteration. Erase uses tombstones that rehash reclaims.
 */

#ifndef CFL_COMMON_FLAT_MAP_HH
#define CFL_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace cfl
{

/** Linear-probed hash map keyed by std::uint64_t. */
template <typename Value>
class FlatMap
{
  public:
    explicit FlatMap(std::size_t initial_capacity = 16)
    {
        std::size_t cap = 8;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.resize(cap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    Value *
    find(std::uint64_t key)
    {
        Slot *s = findSlot(key);
        return s == nullptr ? nullptr : &s->value;
    }

    const Value *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /** Get-or-default-insert, unordered_map::operator[] style. */
    Value &
    operator[](std::uint64_t key)
    {
        if (Slot *s = findSlot(key))
            return s->value;
        maybeGrow();
        Slot &s = insertSlot(key);
        return s.value;
    }

    /** Insert or overwrite. */
    void
    assign(std::uint64_t key, Value value)
    {
        (*this)[key] = std::move(value);
    }

    bool
    erase(std::uint64_t key)
    {
        Slot *s = findSlot(key);
        if (s == nullptr)
            return false;
        s->state = kTombstone;
        s->value = Value{};
        --size_;
        ++tombstones_;
        return true;
    }

    void
    clear()
    {
        for (Slot &s : slots_) {
            s.state = kEmpty;
            s.value = Value{};
        }
        size_ = 0;
        tombstones_ = 0;
    }

    /** Visit every (key, value); mutation of values is allowed. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Slot &s : slots_)
            if (s.state == kFull)
                fn(s.key, s.value);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.state == kFull)
                fn(s.key, s.value);
    }

    /** Erase every entry for which @p pred returns false. */
    template <typename Pred>
    void
    retainIf(Pred &&pred)
    {
        for (Slot &s : slots_) {
            if (s.state == kFull && !pred(s.key, s.value)) {
                s.state = kTombstone;
                s.value = Value{};
                --size_;
                ++tombstones_;
            }
        }
    }

  private:
    enum : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

    struct Slot
    {
        std::uint64_t key = 0;
        Value value{};
        std::uint8_t state = kEmpty;
    };

    std::size_t mask() const { return slots_.size() - 1; }

    Slot *
    findSlot(std::uint64_t key)
    {
        std::size_t i = hashMix(key) & mask();
        while (true) {
            Slot &s = slots_[i];
            if (s.state == kEmpty)
                return nullptr;
            if (s.state == kFull && s.key == key)
                return &s;
            i = (i + 1) & mask();
        }
    }

    /** Place @p key in the first reusable slot of its probe chain; the
     *  caller has verified the key is absent and capacity suffices. */
    Slot &
    insertSlot(std::uint64_t key)
    {
        std::size_t i = hashMix(key) & mask();
        while (true) {
            Slot &s = slots_[i];
            if (s.state != kFull) {
                if (s.state == kTombstone)
                    --tombstones_;
                s.key = key;
                s.state = kFull;
                ++size_;
                return s;
            }
            i = (i + 1) & mask();
        }
    }

    void
    maybeGrow()
    {
        // Keep live + dead occupancy under ~70% so probe chains stay
        // short; rehash also reclaims tombstones.
        if ((size_ + tombstones_ + 1) * 10 < slots_.size() * 7)
            return;
        std::vector<Slot> old = std::move(slots_);
        slots_.clear();
        slots_.resize(size_ * 4 < old.size() ? old.size() : old.size() * 2);
        size_ = 0;
        tombstones_ = 0;
        for (Slot &s : old)
            if (s.state == kFull)
                insertSlot(s.key).value = std::move(s.value);
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t tombstones_ = 0;
};

} // namespace cfl

#endif // CFL_COMMON_FLAT_MAP_HH
