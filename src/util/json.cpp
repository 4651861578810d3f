#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/error.h"

namespace optimus {

JsonValue
JsonValue::boolean(bool v)
{
    JsonValue j;
    j.value_.emplace<bool>(v);
    return j;
}

JsonValue
JsonValue::number(double v)
{
    JsonValue j;
    j.value_.emplace<double>(v);
    return j;
}

JsonValue
JsonValue::string(std::string v)
{
    JsonValue j;
    j.value_.emplace<std::string>(std::move(v));
    return j;
}

JsonValue
JsonValue::array()
{
    JsonValue j;
    j.value_.emplace<Array>();
    return j;
}

JsonValue
JsonValue::object()
{
    JsonValue j;
    j.value_.emplace<Object>();
    return j;
}

bool
JsonValue::asBool() const
{
    checkConfig(isBool(), "json: expected a boolean");
    return std::get<bool>(value_);
}

double
JsonValue::asNumber() const
{
    checkConfig(isNumber(), "json: expected a number");
    return std::get<double>(value_);
}

long long
JsonValue::asInt() const
{
    double v = asNumber();
    long long i = static_cast<long long>(v);
    checkConfig(double(i) == v, "json: expected an integer");
    return i;
}

const std::string &
JsonValue::asString() const
{
    checkConfig(isString(), "json: expected a string");
    return std::get<std::string>(value_);
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    checkConfig(isArray(), "json: expected an array");
    return std::get<Array>(value_);
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject() const
{
    checkConfig(isObject(), "json: expected an object");
    return std::get<Object>(value_);
}

bool
JsonValue::has(const std::string &key) const
{
    for (const auto &[k, v] : asObject())
        if (k == key)
            return true;
    return false;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    for (const auto &[k, v] : asObject())
        if (k == key)
            return v;
    throw ConfigError("json: missing member \"" + key + "\"");
}

double
JsonValue::getNumber(const std::string &key, double fallback) const
{
    return has(key) ? at(key).asNumber() : fallback;
}

long long
JsonValue::getInt(const std::string &key, long long fallback) const
{
    return has(key) ? at(key).asInt() : fallback;
}

bool
JsonValue::getBool(const std::string &key, bool fallback) const
{
    return has(key) ? at(key).asBool() : fallback;
}

std::string
JsonValue::getString(const std::string &key, std::string fallback) const
{
    return has(key) ? at(key).asString() : std::move(fallback);
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue value)
{
    Object *members = std::get_if<Object>(&value_);
    checkConfig(members != nullptr, "json: set() needs an object");
    for (auto &[k, v] : *members) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    members->emplace_back(key, std::move(value));
    return *this;
}

JsonValue &
JsonValue::push(JsonValue value)
{
    Array *elements = std::get_if<Array>(&value_);
    checkConfig(elements != nullptr, "json: push() needs an array");
    elements->push_back(std::move(value));
    return *this;
}

size_t
JsonValue::size() const
{
    if (const Array *elements = std::get_if<Array>(&value_))
        return elements->size();
    if (const Object *members = std::get_if<Object>(&value_))
        return members->size();
    throw ConfigError("json: size() needs an array or object");
}

// ---- Parser ----------------------------------------------------------

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    run()
    {
        JsonValue v = value();
        skipWhitespace();
        checkConfig(pos_ == text_.size(),
                    "json: trailing characters at offset " +
                        std::to_string(pos_));
        return v;
    }

  private:
    const std::string &text_;
    size_t pos_ = 0;

    [[noreturn]] void
    fail(const std::string &what)
    {
        throw ConfigError("json: " + what + " at offset " +
                          std::to_string(pos_));
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("bad literal, expected \"") + word +
                     "\"");
            ++pos_;
        }
    }

    JsonValue
    value()
    {
        skipWhitespace();
        switch (peek()) {
          case '{': return objectValue();
          case '[': return arrayValue();
          case '"': return JsonValue::string(stringValue());
          case 't': literal("true"); return JsonValue::boolean(true);
          case 'f': literal("false"); return JsonValue::boolean(false);
          case 'n':
            if (text_.compare(pos_, 3, "nan") == 0)
                return numberValue();
            literal("null");
            return JsonValue();
          default: return numberValue();
        }
    }

    JsonValue
    objectValue()
    {
        expect('{');
        JsonValue obj = JsonValue::object();
        skipWhitespace();
        if (consume('}'))
            return obj;
        while (true) {
            skipWhitespace();
            std::string key = stringValue();
            skipWhitespace();
            expect(':');
            obj.set(key, value());
            skipWhitespace();
            if (consume('}'))
                return obj;
            expect(',');
        }
    }

    JsonValue
    arrayValue()
    {
        expect('[');
        JsonValue arr = JsonValue::array();
        skipWhitespace();
        if (consume(']'))
            return arr;
        while (true) {
            arr.push(value());
            skipWhitespace();
            if (consume(']'))
                return arr;
            expect(',');
        }
    }

    std::string
    stringValue()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote or escape in one go.
            const size_t stop = text_.find_first_of("\"\\", pos_);
            if (stop == std::string::npos) {
                pos_ = text_.size();
                fail("unterminated string");
            }
            out.append(text_, pos_, stop - pos_);
            pos_ = stop + 1;
            if (text_[stop] == '"')
                return out;
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code += h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code += h - 'A' + 10;
                    else
                        fail("bad \\u escape");
                }
                // Encode as UTF-8 (basic multilingual plane only).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue
    numberValue()
    {
        size_t start = pos_;
        const bool negative = consume('-');
        // dump() writes a non-finite number as inf, nan or either
        // with a minus sign; read those back.
        if (pos_ < text_.size() &&
            (text_[pos_] == 'i' || text_[pos_] == 'n')) {
            const bool inf = text_[pos_] == 'i';
            literal(inf ? "inf" : "nan");
            const double v =
                inf ? std::numeric_limits<double>::infinity()
                    : std::numeric_limits<double>::quiet_NaN();
            return JsonValue::number(negative ? -v : v);
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        char *end = nullptr;
        double v = std::strtod(text_.c_str() + start, &end);
        if (end != text_.c_str() + pos_)
            fail("malformed number \"" +
                 text_.substr(start, pos_ - start) + "\"");
        return JsonValue::number(v);
    }
};

void
escapeInto(std::string &out, const std::string &s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out.push_back('"');
    // Append runs of bytes that need no escape in one call each.
    const char *run = s.data();
    const char *end = run + s.size();
    for (const char *p = run; p != end; ++p) {
        const unsigned char c = static_cast<unsigned char>(*p);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(run, static_cast<size_t>(p - run));
        run = p + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
            out.append(esc, sizeof(esc));
          }
        }
    }
    out.append(run, static_cast<size_t>(end - run));
    out.push_back('"');
}

/**
 * Write the first of %.12g/%.15g/%.16g/%.17g that parses back to @p v
 * into @p buf; returns the end of the text. Ledger round trips
 * (RunRecord serialize -> parse) must be lossless, but "0.1" should
 * not print as "0.1000000000000000056".
 *
 * A %.{p}g text that parses back has at most p digits, so no p below
 * the digit count of the shortest round-trip text can: the checked
 * loop starts at the first precision that reaches it.
 */
char *
roundTripInto(char *buf, char *last, double v)
{
    const char *shortest_end =
        std::to_chars(buf, last, v, std::chars_format::scientific).ptr;
    int digits = 0;
    for (const char *p = buf; p != shortest_end && *p != 'e'; ++p)
        digits += *p >= '0' && *p <= '9';
    char *end = buf;
    for (int prec : {12, 15, 16, 17}) {
        if (prec < digits)
            continue;
        end = std::to_chars(buf, last, v, std::chars_format::general, prec)
                  .ptr;
        double back = std::numeric_limits<double>::quiet_NaN();
        std::from_chars(buf, end, back);
        if (back == v)
            break;
    }
    return end;
}

void
numberInto(std::string &out, double v)
{
    char buf[32];
    char *end = std::fabs(v) < 1e15 && v == static_cast<long long>(v)
                    ? std::to_chars(buf, buf + sizeof(buf),
                                    static_cast<long long>(v))
                          .ptr
                    : roundTripInto(buf, buf + sizeof(buf), v);
    out.append(buf, static_cast<size_t>(end - buf));
}

} // namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).run();
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            out.push_back('\n');
            out.append(static_cast<size_t>(indent) * d, ' ');
        }
    };

    switch (type()) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += std::get<bool>(value_) ? "true" : "false";
        break;
      case Type::Number:
        numberInto(out, std::get<double>(value_));
        break;
      case Type::String:
        escapeInto(out, std::get<std::string>(value_));
        break;
      case Type::Array: {
        const Array &elements = std::get<Array>(value_);
        out.push_back('[');
        for (size_t i = 0; i < elements.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            elements[i].dumpTo(out, indent, depth + 1);
        }
        if (!elements.empty())
            newline(depth);
        out.push_back(']');
        break;
      }
      case Type::Object: {
        const Object &members = std::get<Object>(value_);
        out.push_back('{');
        for (size_t i = 0; i < members.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            escapeInto(out, members[i].first);
            out.push_back(':');
            if (indent > 0)
                out.push_back(' ');
            members[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!members.empty())
            newline(depth);
        out.push_back('}');
        break;
      }
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

} // namespace optimus
