/**
 * @file
 * Lexer for the subset of JSON the line-oriented stores emit: objects,
 * arrays, strings (with only the two escapes escapeJsonString()
 * produces, \" and \\), decimal integers, and the words true and
 * false. The generic record codec (record.hh) drives it
 * for every store, so a parsing fix reaches all of them at once.
 * Malformed input is fatal(), or thrown for tolerant loaders: these
 * files are machine-written, so a syntax error means corruption, not
 * user error worth recovering from.
 */

#ifndef CFL_SWEEPIO_JSON_HH
#define CFL_SWEEPIO_JSON_HH

#include <cctype>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace cfl::sweepio
{

/**
 * @p value made safe for a double-quoted JSON string in these stores:
 * '"' and '\\' are backslash-escaped (the only escapes MiniJsonParser
 * accepts back). Control bytes and newlines have no escape in this
 * dialect and would tear the line-oriented stores, so they are
 * fatal() — writers must reject such values at record-build time.
 */
inline std::string
escapeJsonString(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (static_cast<unsigned char>(c) < 0x20)
            cfl_fatal("string \"%s\" contains control byte 0x%02x, "
                      "which the line-oriented stores cannot hold",
                      value.c_str(), static_cast<unsigned char>(c));
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

class MiniJsonParser
{
  public:
    /**
     * Parse @p text; @p context names the store in error messages
     * ("malformed <context> at offset ..."). With @p throw_on_error,
     * malformed input throws std::runtime_error instead of fatal()ing
     * — for loaders that tolerate a torn trailing line (a process
     * killed mid-append) rather than wedging on it forever.
     */
    MiniJsonParser(const std::string &text, const char *context,
                   bool throw_on_error = false)
        : text_(text), context_(context), throwOnError_(throw_on_error)
    {
    }

    void expect(char c)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    /** True (and consumes) if the next non-space char is @p c. */
    bool accept(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (c == '\\') {
                // Only the two escapes escapeJsonString() emits; any
                // other sequence means a foreign writer or corruption.
                if (pos_ + 1 >= text_.size())
                    fail("unterminated escape sequence");
                c = text_[++pos_];
                if (c != '"' && c != '\\')
                    fail("unsupported escape sequence");
            }
            out += c;
            ++pos_;
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        ++pos_;
        return out;
    }

    /** The decimal integer that comes next (a '-' only for signed
     *  I), which must fit in I. */
    template <std::integral I>
    I number()
    {
        skipSpace();
        I value = 0;
        const char *first = text_.data() + pos_;
        const auto [last, ec] =
            std::from_chars(first, text_.data() + text_.size(), value);
        if (last == first)
            fail("expected an integer");
        if (ec != std::errc())
            fail("integer " + std::string(first, last) +
                 " does not fit in a " + std::to_string(sizeof(I) * 8) +
                 "-bit field");
        pos_ += static_cast<std::size_t>(last - first);
        return value;
    }

    /** Key of the next "key": pair. */
    std::string key()
    {
        std::string k = string();
        expect(':');
        return k;
    }

    /** "key" with the expected name, then ':'. */
    void namedKey(const char *name)
    {
        // The common case, the expected key verbatim, compares in place.
        skipSpace();
        const std::size_t len = std::char_traits<char>::length(name);
        if (pos_ + len + 2 <= text_.size() && text_[pos_] == '"' &&
            text_.compare(pos_ + 1, len, name) == 0 &&
            text_[pos_ + 1 + len] == '"') {
            pos_ += len + 2;
            expect(':');
            return;
        }
        const std::string k = key();
        if (k != name)
            fail("expected key \"" + std::string(name) + "\", got \"" +
                 k + "\"");
    }

    /** True (and consumes) if the bare word @p word comes next. */
    bool acceptWord(const char *word)
    {
        skipSpace();
        const std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    void end()
    {
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
    }

    /** Report a semantic error (e.g. an unknown enum slug) through the
     *  same fatal-or-throw channel as syntax errors, so tolerant
     *  loaders can skip entries written by a different code version. */
    [[noreturn]] void error(const std::string &msg) { fail(msg); }

  private:
    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    [[noreturn]] void fail(const std::string &msg)
    {
        const std::string full = cfl::detail::formatString(
            "malformed %s at offset %zu: %s", context_, pos_,
            msg.c_str());
        if (throwOnError_)
            throw std::runtime_error(full);
        cfl_fatal("%s", full.c_str());
    }

    const std::string &text_;
    const char *context_;
    bool throwOnError_;
    std::size_t pos_ = 0;
};

} // namespace cfl::sweepio

#endif // CFL_SWEEPIO_JSON_HH
