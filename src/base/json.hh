/**
 * @file
 * The one JSON writer every exporter emits through: objects, arrays,
 * the commas between members, string escaping and numbers.
 *
 * Strings are escaped byte-wise (quote, backslash, control bytes and
 * bytes >= 0x7f as \u00xx), so the output is ASCII whatever a name
 * holds.  Doubles print in shortest round-trip form, a non-finite one
 * as null.  Members of containers nested shallower than `lineDepth`
 * each start an indented line; a document ends with a newline.
 */

#ifndef TRANSPUTER_BASE_JSON_HH
#define TRANSPUTER_BASE_JSON_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace transputer
{

class JsonWriter
{
  public:
    /** Collect the document in memory (read it back with str()). */
    explicit JsonWriter(unsigned lineDepth = 0) : lineDepth_(lineDepth)
    {}

    /** Stream the document to `sink` in chunks as it is written. */
    explicit JsonWriter(std::ostream &sink, unsigned lineDepth = 0)
        : sink_(&sink), lineDepth_(lineDepth)
    {}

    JsonWriter(const JsonWriter &) = delete; // one owner per document
    JsonWriter &operator=(const JsonWriter &) = delete;
    ~JsonWriter() { flush(); }

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &beginArray() { return open('['); }

    /** Close the innermost open object or array. */
    JsonWriter &
    end()
    {
        const Level l = stack_.back();
        stack_.pop_back();
        if (!l.empty && stack_.size() < lineDepth_)
            newline(stack_.size());
        buf_ += l.object ? '}' : ']';
        if (stack_.empty()) {
            buf_ += '\n';
            flush();
        }
        return *this;
    }

    /** Start an object member; the next value or begin is its value. */
    JsonWriter &
    key(std::string_view k)
    {
        element();
        string(k);
        buf_ += ": ";
        afterKey_ = true;
        return *this;
    }

    JsonWriter &
    value(std::string_view s)
    {
        element();
        string(s);
        return *this;
    }

    JsonWriter &
    value(double d)
    {
        element();
        if (!std::isfinite(d)) {
            buf_ += "null";
            return *this;
        }
        char tmp[32];
        buf_.append(tmp, std::to_chars(tmp, tmp + sizeof(tmp), d).ptr);
        return *this;
    }

    /** Integers and bool (which prints as true/false). */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    JsonWriter &
    value(T v)
    {
        element();
        if constexpr (std::is_same_v<T, bool>) {
            buf_ += v ? "true" : "false";
        } else {
            char tmp[24];
            buf_.append(tmp,
                        std::to_chars(tmp, tmp + sizeof(tmp), v).ptr);
        }
        return *this;
    }

    /** key(k).value(v) */
    template <typename T>
    JsonWriter &
    field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

    /** The document so far (in-memory writers). */
    const std::string &str() const { return buf_; }

  private:
    struct Level
    {
        bool object;
        bool empty;
    };

    JsonWriter &
    open(char bracket)
    {
        element();
        buf_ += bracket;
        stack_.push_back(Level{bracket == '{', true});
        return *this;
    }

    /** Separator and layout before a member (none after a key). */
    void
    element()
    {
        if (afterKey_) {
            afterKey_ = false;
            return;
        }
        if (stack_.empty())
            return;
        Level &l = stack_.back();
        if (!l.empty)
            buf_ += ',';
        if (stack_.size() <= lineDepth_)
            newline(stack_.size());
        else if (!l.empty)
            buf_ += ' ';
        l.empty = false;
        if (sink_ && buf_.size() >= kChunk)
            flush();
    }

    void
    newline(size_t depth)
    {
        buf_ += '\n';
        buf_.append(2 * depth, ' ');
    }

    void
    string(std::string_view s)
    {
        static constexpr char hex[] = "0123456789abcdef";
        buf_ += '"';
        for (const char ch : s) {
            const auto b = static_cast<unsigned char>(ch);
            if (b == '"' || b == '\\') {
                buf_ += '\\';
                buf_ += ch;
            } else if (b < 0x20 || b >= 0x7f) {
                buf_ += "\\u00";
                buf_ += hex[b >> 4];
                buf_ += hex[b & 0xf];
            } else {
                buf_ += ch;
            }
        }
        buf_ += '"';
    }

    void
    flush()
    {
        if (sink_ && !buf_.empty()) {
            sink_->write(buf_.data(),
                         static_cast<std::streamsize>(buf_.size()));
            buf_.clear();
        }
    }

    static constexpr size_t kChunk = 64 * 1024;

    std::ostream *sink_ = nullptr;
    unsigned lineDepth_;
    std::string buf_;
    std::vector<Level> stack_;
    bool afterKey_ = false;
};

} // namespace transputer

#endif // TRANSPUTER_BASE_JSON_HH
