#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mxl {

Json &
Json::set(const std::string &key, Json v)
{
    type_ = Type::Object;
    obj_.emplace_back(key, std::move(v));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    const Json *found = nullptr;
    for (const auto &kv : obj_)
        if (kv.first == key)
            found = &kv.second;
    return found;
}

Json &
Json::push(Json v)
{
    type_ = Type::Array;
    arr_.push_back(std::move(v));
    return *this;
}

size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

bool
Json::asBool(bool dflt) const
{
    return type_ == Type::Bool ? bool_ : dflt;
}

int64_t
Json::asInt(int64_t dflt) const
{
    switch (type_) {
      case Type::Int:
        return int_;
      case Type::Uint:
        return static_cast<int64_t>(uint_);
      case Type::Real:
        // Truncate only reals that fit: converting a non-finite or
        // out-of-range double is undefined behaviour.
        return real_ >= -0x1p63 && real_ < 0x1p63
                   ? static_cast<int64_t>(real_)
                   : dflt;
      default:
        return dflt;
    }
}

uint64_t
Json::asUint(uint64_t dflt) const
{
    switch (type_) {
      case Type::Uint:
        return uint_;
      case Type::Int:
        return static_cast<uint64_t>(int_);
      case Type::Real:
        // As asInt: only reals whose truncation fits (NaN fails both).
        return real_ > -1.0 && real_ < 0x1p64
                   ? static_cast<uint64_t>(real_)
                   : dflt;
      default:
        return dflt;
    }
}

double
Json::asReal(double dflt) const
{
    switch (type_) {
      case Type::Real:
        return real_;
      case Type::Int:
        return static_cast<double>(int_);
      case Type::Uint:
        return static_cast<double>(uint_);
      default:
        return dflt;
    }
}

namespace {

void
escapeTo(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
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
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        out += std::to_string(int_);
        break;
      case Type::Uint:
        out += std::to_string(uint_);
        break;
      case Type::Real: {
        if (std::isfinite(real_)) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", real_);
            out += buf;
        } else {
            out += "null"; // JSON has no inf/nan
        }
        break;
      }
      case Type::Str:
        escapeTo(out, str_);
        break;
      case Type::Array: {
        out += '[';
        for (size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            newlineIndent(out, indent, depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        if (!arr_.empty())
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Type::Object: {
        out += '{';
        for (size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            newlineIndent(out, indent, depth + 1);
            escapeTo(out, obj_[i].first);
            out += ": ";
            obj_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!obj_.empty())
            newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ---- parser -----------------------------------------------------------

namespace {

struct Parser
{
    const char *p;
    const char *end;

    void
    ws()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    lit(const char *s)
    {
        const char *q = p;
        while (*s) {
            if (q >= end || *q != *s)
                return false;
            ++q;
            ++s;
        }
        p = q;
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (p >= end || *p != '"')
            return false;
        ++p;
        out->clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (p >= end)
                return false;
            char e = *p++;
            switch (e) {
              case '"': *out += '"'; break;
              case '\\': *out += '\\'; break;
              case '/': *out += '/'; break;
              case 'b': *out += '\b'; break;
              case 'f': *out += '\f'; break;
              case 'n': *out += '\n'; break;
              case 'r': *out += '\r'; break;
              case 't': *out += '\t'; break;
              case 'u': {
                if (end - p < 4)
                    return false;
                unsigned v = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = *p++;
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // Minimal UTF-8 encode (no surrogate pairing; the
                // repo's own output never emits non-BMP escapes).
                if (v < 0x80) {
                    *out += static_cast<char>(v);
                } else if (v < 0x800) {
                    *out += static_cast<char>(0xC0 | (v >> 6));
                    *out += static_cast<char>(0x80 | (v & 0x3F));
                } else {
                    *out += static_cast<char>(0xE0 | (v >> 12));
                    *out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
                    *out += static_cast<char>(0x80 | (v & 0x3F));
                }
                break;
              }
              default:
                return false;
            }
        }
        if (p >= end)
            return false;
        ++p; // closing quote
        return true;
    }

    bool
    parseNumber(Json *out)
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        bool digits = false;
        while (p < end && std::isdigit(static_cast<unsigned char>(*p))) {
            ++p;
            digits = true;
        }
        bool integral = true;
        if (p < end && *p == '.') {
            integral = false;
            ++p;
            while (p < end &&
                   std::isdigit(static_cast<unsigned char>(*p)))
                ++p;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            integral = false;
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            while (p < end &&
                   std::isdigit(static_cast<unsigned char>(*p)))
                ++p;
        }
        if (!digits)
            return false;
        std::string text(start, p);
        if (integral) {
            errno = 0;
            if (text[0] == '-') {
                int64_t v = std::strtoll(text.c_str(), nullptr, 10);
                if (errno == ERANGE)
                    return false;
                *out = Json(v);
            } else {
                uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
                if (errno == ERANGE)
                    return false;
                *out = Json(v);
            }
        } else {
            *out = Json(std::strtod(text.c_str(), nullptr));
        }
        return true;
    }

    bool
    parseValue(Json *out, int depth)
    {
        if (depth > 64)
            return false; // runaway nesting
        ws();
        if (p >= end)
            return false;
        switch (*p) {
          case 'n':
            if (!lit("null"))
                return false;
            *out = Json();
            return true;
          case 't':
            if (!lit("true"))
                return false;
            *out = Json(true);
            return true;
          case 'f':
            if (!lit("false"))
                return false;
            *out = Json(false);
            return true;
          case '"': {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Json(std::move(s));
            return true;
          }
          case '[': {
            ++p;
            Json arr = Json::array();
            ws();
            if (p < end && *p == ']') {
                ++p;
                *out = std::move(arr);
                return true;
            }
            for (;;) {
                Json elem;
                if (!parseValue(&elem, depth + 1))
                    return false;
                arr.push(std::move(elem));
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    *out = std::move(arr);
                    return true;
                }
                return false;
            }
          }
          case '{': {
            ++p;
            Json obj = Json::object();
            ws();
            if (p < end && *p == '}') {
                ++p;
                *out = std::move(obj);
                return true;
            }
            for (;;) {
                ws();
                std::string key;
                if (!parseString(&key))
                    return false;
                ws();
                if (p >= end || *p != ':')
                    return false;
                ++p;
                Json val;
                if (!parseValue(&val, depth + 1))
                    return false;
                obj.set(key, std::move(val));
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    *out = std::move(obj);
                    return true;
                }
                return false;
            }
          }
          default:
            return parseNumber(out);
        }
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json *out)
{
    Parser pr{text.data(), text.data() + text.size()};
    if (!pr.parseValue(out, 0))
        return false;
    pr.ws();
    return pr.p == pr.end;
}

bool
Json::roundTrips(const Json &j)
{
    const std::string text = j.dump();
    Json back;
    return parse(text, &back) && back.dump() == text;
}

bool
writeJsonFile(const std::string &path, const Json &j, int indent)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = j.dump(indent) + "\n";
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace mxl
