/**
 * @file
 * One field table per record type, and the codec derived from it.
 *
 * Every line a store writes is one record type T whose Schema<T>
 * specialization lists its fields once, in line order. Four templates
 * derive everything a store needs from that table:
 *
 *   encode(record)             the canonical line, no trailing newline;
 *   decode<T>(line)            strict parse, fatal() on malformed input;
 *   tryDecode(line, &record)   the same parse, false instead of fatal();
 *   loadRecords<T>(path, ...)  every decodable line of a store file,
 *                              torn or foreign lines skipped with a
 *                              warning.
 *
 * A writer and a reader generated from one table cannot disagree about
 * a field's name, order or form. Field order is fixed, so equal records
 * encode to equal bytes: shard files concatenate into the text a whole
 * sweep emits, and digests and cache keys hang off those bytes.
 *
 * The member's type picks its JSON form. Integers are decimal (a '-'
 * only for signed members), range-checked against the member's width
 * on decode; bool is 0 or 1, nothing else; std::string goes through
 * escapeJsonString(); a double is its IEEE-754 bit pattern as a decimal
 * u64, so it round-trips bit-identically; std::vector<E> is an array; a
 * type with a Schema is a nested object. Any other type specializes
 * ValueCodec (the slug enums in codec.hh).
 *
 * A table row is Field{name, member}, where the member is a member
 * pointer or a generic lambda returning a reference to a nested member.
 * Four more descriptors cover the irregular shapes:
 *
 *   Trailing{name, member, &M::enabled}  an optional block, written
 *       only when the predicate holds. Trailing blocks come after every
 *       plain field; decode reads them in table order, each at most
 *       once. This is how a field is added without moving existing
 *       bytes, digests or cache keys: records that leave it at its
 *       default keep their old encoding.
 *   Tagged{name, member, When{tag, fields...}...}  a string tag that
 *       selects the field list following it.
 *   TrueFalse{name, member}  a bool spelled true/false.
 *   WriteOnly{name, render}  a string rendered from the record for
 *       human readers; decode checks it is a string and drops it.
 *
 * A schema may also define `static void decoded(T &)`, run after a
 * successful decode to fill members the line implies but does not
 * spell out. Top-level records name their store in `context`, which
 * every parse error carries ("malformed <context> at offset ...").
 */

#ifndef CFL_SWEEPIO_RECORD_HH
#define CFL_SWEEPIO_RECORD_HH

#include <bit>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sweepio/json.hh"

namespace cfl::sweepio
{

/** Field table of record type T; see the file comment. */
template <typename T>
struct Schema;

/** How a member of type V travels; see the file comment. */
template <typename V>
struct ValueCodec;

template <typename T>
concept Record = requires { Schema<T>::fields; };

/** A record that is a whole line of some store. */
template <typename T>
concept TopLevelRecord = Record<T> && requires {
    { Schema<T>::context } -> std::convertible_to<const char *>;
};

/** Doubles travel as their IEEE-754 bit patterns: a decimal rendering
 *  would round, and round trips must be bit-identical. */
inline std::uint64_t
doubleBits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

inline double
doubleFromBits(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

namespace detail
{

template <typename T, typename Acc>
decltype(auto)
access(T &record, const Acc &member)
{
    if constexpr (std::is_member_object_pointer_v<Acc>)
        return (record.*member);
    else
        return member(record);
}

template <typename V>
void
writeValue(std::string &out, const V &value)
{
    ValueCodec<V>::write(out, value);
}

template <typename V>
void
readValue(MiniJsonParser &p, V &value)
{
    ValueCodec<V>::read(p, value);
}

/** Emits one object's keys, comma-separated. */
struct Writer
{
    std::string &out;
    bool first = true;

    void key(const char *name)
    {
        out += first ? "\"" : ",\"";
        first = false;
        out += name;
        out += "\":";
    }
};

/**
 * Reads one object's keys in table order. An absent trailing block
 * has already consumed the next key by the time it knows it is absent;
 * that key waits in `pending` for the descriptor it belongs to.
 */
struct Reader
{
    MiniJsonParser &p;
    bool first = true;
    bool hasPending = false;
    std::string pending = {};

    void key(const char *name)
    {
        if (!hasPending) {
            if (!first)
                p.expect(',');
            p.namedKey(name);
        } else if (pending != name) {
            p.error("expected key \"" + std::string(name) + "\", got \"" +
                    pending + "\"");
        }
        first = false;
        hasPending = false;
    }

    /** Whether the trailing block @p name comes next (key consumed). */
    bool trailingKey(const char *name)
    {
        if (!hasPending) {
            if (!p.accept(','))
                return false;
            pending = p.key();
        }
        hasPending = pending != name;
        return !hasPending;
    }

    void close()
    {
        if (hasPending)
            p.error("unexpected key \"" + pending + "\"");
        p.expect('}');
    }
};

template <typename T, typename Fields>
void
writeFields(Writer &w, const T &record, const Fields &fields)
{
    std::apply([&](const auto &...f) { (f.write(w, record), ...); },
               fields);
}

template <typename T, typename Fields>
void
readFields(Reader &r, T &record, const Fields &fields)
{
    std::apply([&](const auto &...f) { (f.read(r, record), ...); }, fields);
}

} // namespace detail

// ---------------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------------

template <typename Acc>
struct Field
{
    const char *name;
    Acc member;

    template <typename T>
    void write(detail::Writer &w, const T &record) const
    {
        w.key(name);
        detail::writeValue(w.out, detail::access(record, member));
    }

    template <typename T>
    void read(detail::Reader &r, T &record) const
    {
        r.key(name);
        detail::readValue(r.p, detail::access(record, member));
    }
};

template <typename Acc, typename Pred>
struct Trailing
{
    const char *name;
    Acc member;
    Pred present;

    template <typename T>
    void write(detail::Writer &w, const T &record) const
    {
        const auto &block = detail::access(record, member);
        if ((block.*present)()) {
            w.key(name);
            detail::writeValue(w.out, block);
        }
    }

    template <typename T>
    void read(detail::Reader &r, T &record) const
    {
        if (r.trailingKey(name))
            detail::readValue(r.p, detail::access(record, member));
    }
};

template <typename Acc>
struct TrueFalse
{
    const char *name;
    Acc member;

    template <typename T>
    void write(detail::Writer &w, const T &record) const
    {
        w.key(name);
        w.out += detail::access(record, member) ? "true" : "false";
    }

    template <typename T>
    void read(detail::Reader &r, T &record) const
    {
        r.key(name);
        bool &value = detail::access(record, member);
        value = r.p.acceptWord("true");
        if (!value && !r.p.acceptWord("false"))
            r.p.error("expected true or false");
    }
};

template <typename Render>
struct WriteOnly
{
    const char *name;
    Render render;

    template <typename T>
    void write(detail::Writer &w, const T &record) const
    {
        w.key(name);
        detail::writeValue(w.out, std::string(render(record)));
    }

    template <typename T>
    void read(detail::Reader &r, T &) const
    {
        r.key(name);
        (void)r.p.string();
    }
};

/** The fields that follow one value of a Tagged string. */
template <typename... Fields>
struct When
{
    const char *tag;
    std::tuple<Fields...> fields;

    constexpr When(const char *tag_value, Fields... field_list)
        : tag(tag_value), fields(field_list...)
    {
    }
};

template <typename Acc, typename... Cases>
struct Tagged
{
    const char *name;
    Acc member;
    std::tuple<Cases...> cases;

    constexpr Tagged(const char *tag_name, Acc tag_member, Cases... when)
        : name(tag_name), member(tag_member), cases(when...)
    {
    }

    template <typename T>
    void write(detail::Writer &w, const T &record) const
    {
        const std::string &tag = detail::access(record, member);
        w.key(name);
        detail::writeValue(w.out, tag);
        if (!std::apply([&](const auto &...c) {
                return ((tag == c.tag &&
                         (detail::writeFields(w, record, c.fields), true)) ||
                        ...);
            }, cases))
            cfl_fatal("cannot encode a record with %s \"%s\"", name,
                      tag.c_str());
    }

    template <typename T>
    void read(detail::Reader &r, T &record) const
    {
        r.key(name);
        std::string &tag = detail::access(record, member);
        detail::readValue(r.p, tag);
        if (!std::apply([&](const auto &...c) {
                return ((tag == c.tag &&
                         (detail::readFields(r, record, c.fields), true)) ||
                        ...);
            }, cases))
            r.p.error("unknown " + std::string(name) + " \"" + tag + "\"");
    }
};

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------

template <std::integral V>
    requires(!std::same_as<V, bool>)
struct ValueCodec<V>
{
    static void write(std::string &out, V value)
    {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    }

    static void read(MiniJsonParser &p, V &value) { value = p.number<V>(); }
};

template <>
struct ValueCodec<bool>
{
    static void write(std::string &out, bool value)
    {
        out += value ? '1' : '0';
    }

    static void read(MiniJsonParser &p, bool &value)
    {
        const auto n = p.number<std::uint64_t>();
        if (n > 1)
            p.error("flag " + std::to_string(n) + " is neither 0 nor 1");
        value = n == 1;
    }
};

template <>
struct ValueCodec<std::string>
{
    static void write(std::string &out, const std::string &value)
    {
        out += '"';
        out += escapeJsonString(value);
        out += '"';
    }

    static void read(MiniJsonParser &p, std::string &value)
    {
        value = p.string();
    }
};

template <>
struct ValueCodec<double>
{
    static void write(std::string &out, double value)
    {
        ValueCodec<std::uint64_t>::write(out, doubleBits(value));
    }

    static void read(MiniJsonParser &p, double &value)
    {
        value = doubleFromBits(p.number<std::uint64_t>());
    }
};

template <typename E>
struct ValueCodec<std::vector<E>>
{
    static void write(std::string &out, const std::vector<E> &values)
    {
        out += '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i > 0)
                out += ',';
            detail::writeValue(out, values[i]);
        }
        out += ']';
    }

    static void read(MiniJsonParser &p, std::vector<E> &values)
    {
        values.clear();
        p.expect('[');
        if (p.accept(']'))
            return;
        do {
            detail::readValue(p, values.emplace_back());
        } while (p.accept(','));
        p.expect(']');
    }
};

template <Record T>
struct ValueCodec<T>
{
    static void write(std::string &out, const T &record)
    {
        out += '{';
        detail::Writer w{out};
        detail::writeFields(w, record, Schema<T>::fields);
        out += '}';
    }

    static void read(MiniJsonParser &p, T &record)
    {
        p.expect('{');
        detail::Reader r{p};
        detail::readFields(r, record, Schema<T>::fields);
        r.close();
        if constexpr (requires { Schema<T>::decoded(record); })
            Schema<T>::decoded(record);
    }
};

// ---------------------------------------------------------------------------
// The four entry points
// ---------------------------------------------------------------------------

namespace detail
{

template <TopLevelRecord T>
T
parseLine(const std::string &line, bool throw_on_error)
{
    MiniJsonParser p(line, Schema<T>::context, throw_on_error);
    T record{};
    readValue(p, record);
    p.end();
    return record;
}

} // namespace detail

/** @p record as one line of its store (no trailing newline). */
template <Record T>
std::string
encode(const T &record)
{
    std::string line;
    detail::writeValue(line, record);
    return line;
}

/** Parse one line; fatal() on malformed input. */
template <TopLevelRecord T>
T
decode(const std::string &line)
{
    return detail::parseLine<T>(line, /*throw_on_error=*/false);
}

/** decode() that reports malformed input as false (leaving @p out
 *  untouched) instead of fatal()ing. */
template <TopLevelRecord T>
bool
tryDecode(const std::string &line, T *out)
{
    try {
        *out = detail::parseLine<T>(line, /*throw_on_error=*/true);
        return true;
    } catch (const std::runtime_error &) {
        return false;
    }
}

/**
 * Call fn(T &&record, const std::string &line) for every record of the
 * store file at @p path, in file order. A missing file holds no
 * records; blank lines are skipped. An undecodable line (the torn tail
 * of a killed append, or a record from a newer binary) is skipped with
 * a warning naming the store as @p what: one bad line costs one record,
 * never the store.
 */
template <TopLevelRecord T, typename Fn>
void
loadRecords(const std::string &path, const char *what, Fn &&fn)
{
    std::ifstream in(path);
    std::string line;
    for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        T record{};
        try {
            record = detail::parseLine<T>(line, /*throw_on_error=*/true);
        } catch (const std::runtime_error &e) {
            cfl_warn("skipping unparseable line %zu of %s \"%s\" (torn "
                     "append?): %s",
                     lineno, what, path.c_str(), e.what());
            continue;
        }
        fn(std::move(record), line);
    }
}

} // namespace cfl::sweepio

#endif // CFL_SWEEPIO_RECORD_HH
