#include "metrics/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace kagura
{
namespace metrics
{
namespace json
{

const Value *
Value::find(std::string_view key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string
escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += detail::vformat("\\u%04x",
                                       static_cast<unsigned>(
                                           static_cast<unsigned char>(c)));
            else
                out.push_back(c);
        }
    }
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15)
        return detail::vformat("%lld", static_cast<long long>(v));
    return detail::vformat("%.17g", v);
}

namespace
{

/** Single-pass cursor over the input text. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : input(text), err(error)
    {
    }

    bool
    parseDocument(Value &out)
    {
        skipWhitespace();
        if (!parseValue(out))
            return false;
        skipWhitespace();
        if (pos != input.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    bool
    fail(const char *what)
    {
        if (err)
            *err = std::string(what) + " at offset " +
                   std::to_string(pos);
        return false;
    }

    void
    skipWhitespace()
    {
        while (pos < input.size() &&
               std::isspace(static_cast<unsigned char>(input[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < input.size() && input[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (input.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    bool
    parseValue(Value &out)
    {
        if (pos >= input.size())
            return fail("unexpected end of input");
        const char c = input[pos];
        switch (c) {
          case '{':
            return parseObject(out);
          case '[':
            return parseArray(out);
          case '"':
            out.type = Value::Type::String;
            return parseString(out.str);
          case 't':
            if (!literal("true"))
                return fail("bad literal");
            out.type = Value::Type::Bool;
            out.boolean = true;
            return true;
          case 'f':
            if (!literal("false"))
                return fail("bad literal");
            out.type = Value::Type::Bool;
            out.boolean = false;
            return true;
          case 'n':
            if (!literal("null"))
                return fail("bad literal");
            out.type = Value::Type::Null;
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos < input.size()) {
            const char c = input[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= input.size())
                return fail("unterminated escape");
            const char esc = input[pos++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out.push_back(esc);
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                  if (pos + 4 > input.size())
                      return fail("truncated \\u escape");
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = input[pos++];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code += static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code += static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code += static_cast<unsigned>(h - 'A' + 10);
                      else
                          return fail("bad \\u escape digit");
                  }
                  // The sinks only escape control characters; decode
                  // the Latin-1 range and reject anything wider.
                  if (code > 0xff)
                      return fail("\\u escape beyond Latin-1");
                  out.push_back(static_cast<char>(code));
                  break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        const std::size_t start = pos;
        if (pos < input.size() && (input[pos] == '-' || input[pos] == '+'))
            ++pos;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos < input.size() &&
                   std::isdigit(static_cast<unsigned char>(input[pos]))) {
                ++pos;
                digits = true;
            }
        };
        eatDigits();
        if (pos < input.size() && input[pos] == '.') {
            ++pos;
            eatDigits();
        }
        if (digits && pos < input.size() &&
            (input[pos] == 'e' || input[pos] == 'E')) {
            ++pos;
            if (pos < input.size() &&
                (input[pos] == '-' || input[pos] == '+'))
                ++pos;
            eatDigits();
        }
        if (!digits)
            return fail("expected a value");
        const std::string text(input.substr(start, pos - start));
        out.type = Value::Type::Number;
        out.number = std::strtod(text.c_str(), nullptr);
        return true;
    }

    bool
    parseArray(Value &out)
    {
        consume('[');
        out.type = Value::Type::Array;
        skipWhitespace();
        if (consume(']'))
            return true;
        for (;;) {
            Value element;
            skipWhitespace();
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipWhitespace();
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(Value &out)
    {
        consume('{');
        out.type = Value::Type::Object;
        skipWhitespace();
        if (consume('}'))
            return true;
        for (;;) {
            skipWhitespace();
            std::string key;
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (!consume(':'))
                return fail("expected ':'");
            Value member;
            skipWhitespace();
            if (!parseValue(member))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            skipWhitespace();
            if (consume('}'))
                return true;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    std::string_view input;
    std::string *err;
    std::size_t pos = 0;
};

} // namespace

bool
parse(std::string_view text, Value &out, std::string *error)
{
    out = Value{};
    return Parser(text, error).parseDocument(out);
}

} // namespace json
} // namespace metrics
} // namespace kagura
