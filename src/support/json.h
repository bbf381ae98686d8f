/**
 * @file
 * Minimal JSON value: build, dump, parse.
 *
 * Just enough JSON for the repo's data interchange needs — the
 * fault-campaign trial journal (faults/campaign.h, JSONL: one value per
 * line) and benchmark report export (core/report.h) — with two
 * properties the standard library cannot give us and a dependency
 * would be overkill for:
 *
 *  - deterministic output: object keys keep insertion order, so equal
 *    construction sequences produce byte-identical text (journals are
 *    compared and diffed);
 *  - exact 64-bit integers: fault seeds are full-width splitmix64
 *    values and cycle counts are uint64; numbers without '.'/'e' parse
 *    and re-serialize exactly, never through double.
 */

#ifndef MXLISP_SUPPORT_JSON_H_
#define MXLISP_SUPPORT_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mxl {

class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Int,  ///< negative integers
        Uint, ///< non-negative integers (full uint64 width)
        Real,
        Str,
        Array,
        Object,
    };

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(int v) : type_(v < 0 ? Type::Int : Type::Uint)
    {
        if (v < 0)
            int_ = v;
        else
            uint_ = static_cast<uint64_t>(v);
    }
    Json(int64_t v) : type_(v < 0 ? Type::Int : Type::Uint)
    {
        if (v < 0)
            int_ = v;
        else
            uint_ = static_cast<uint64_t>(v);
    }
    Json(uint64_t v) : type_(Type::Uint), uint_(v) {}
    Json(uint32_t v) : type_(Type::Uint), uint_(v) {}
    Json(double v) : type_(Type::Real), real_(v) {}
    Json(std::string s) : type_(Type::Str), str_(std::move(s)) {}
    Json(const char *s) : type_(Type::Str), str_(s) {}

    static Json object() { Json j; j.type_ = Type::Object; return j; }
    static Json array() { Json j; j.type_ = Type::Array; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }
    bool isString() const { return type_ == Type::Str; }
    bool
    isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Uint ||
               type_ == Type::Real;
    }

    /** Object: set @p key (appends; last set of a repeated key wins on
     *  lookup). Returns *this for chaining. */
    Json &set(const std::string &key, Json v);

    /** Object: the value at @p key, or nullptr. */
    const Json *find(const std::string &key) const;

    /** Array: append an element. Returns *this for chaining. */
    Json &push(Json v);

    /** Array/Object element count; 0 for scalars. */
    size_t size() const;

    /** Array element (unchecked index). */
    const Json &at(size_t i) const { return arr_[i]; }

    /** Object entry by index (unchecked; insertion order). */
    const std::pair<std::string, Json> &entry(size_t i) const
    {
        return obj_[i];
    }

    // Scalar accessors; wrong-type access returns the default, as does
    // a real whose truncation the integer type cannot hold.
    bool asBool(bool dflt = false) const;
    int64_t asInt(int64_t dflt = 0) const;
    uint64_t asUint(uint64_t dflt = 0) const;
    double asReal(double dflt = 0) const;
    const std::string &str() const { return str_; }

    /**
     * Serialize. @p indent 0 gives the compact single-line form (the
     * JSONL journal format); positive values pretty-print with that
     * many spaces per level.
     */
    std::string dump(int indent = 0) const;

    /** Parse one JSON value from @p text (trailing whitespace allowed,
     *  other trailing content rejected). False on malformed input. */
    static bool parse(const std::string &text, Json *out);

    /**
     * Dump, reparse, and re-dump @p j, checking the two dumps are
     * byte-identical — the validity gate every BENCH_*.json artifact
     * passes through before a bench harness reports it written
     * (deterministic output makes equality the strongest check).
     */
    static bool roundTrips(const Json &j);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    int64_t int_ = 0;
    uint64_t uint_ = 0;
    double real_ = 0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/**
 * Serialize @p j to @p path (pretty-printed with @p indent, trailing
 * newline). False on I/O failure. The standard sink for BENCH_*.json
 * and trace exports.
 */
bool writeJsonFile(const std::string &path, const Json &j, int indent = 1);

} // namespace mxl

#endif // MXLISP_SUPPORT_JSON_H_
