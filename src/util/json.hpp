// JSON for the repository's own machine-readable formats (RFC 8259 subset):
// one lexer, one escaper, one number formatter.
//
// `reader` pulls values straight out of the text, so a caller that knows
// its schema (api/serde's wire codec) fills its own structs without a
// document tree. `parse` builds a small DOM on the same reader for tools
// that walk documents of unknown shape: tools/bench_compare diffing
// google-benchmark JSON, tests validating the Chrome trace export. The
// writers append into the caller's buffer. Numbers are doubles; parse
// errors throw compact::parse_error("json: <what> at offset N").
#pragma once

#include <charconv>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace compact::json {

enum class kind { null, boolean, number, string, array, object };

/// Pull reader over one JSON text. Each read skips leading whitespace,
/// consumes exactly one value and throws parse_error when the next value is
/// malformed or of another kind. Containers nest at most 1,000 deep. The
/// text must outlive the reader.
class reader {
 public:
  explicit reader(std::string_view text) : text_(text) {}

  /// Kind of the next value, judged by its first character (a number's
  /// token is only checked when it is read).
  [[nodiscard]] kind peek();

  /// Read an object. `on_member(std::string_view key)` runs once per member,
  /// in document order, and must read or skip the member's value. The key
  /// views the text itself unless it holds an escape; either way it stays
  /// valid until the next member's key is read.
  template <typename OnMember>
  void object(OnMember&& on_member);
  /// Read an array; `on_item()` runs once per item and must consume it.
  template <typename OnItem>
  void array(OnItem&& on_item);

  [[nodiscard]] std::string string();
  [[nodiscard]] bool boolean();
  void null();
  /// A number token: `-`, digits, `.`, `e`, `E` and `+` that strtod reads
  /// whole to a finite value.
  [[nodiscard]] double number();
  /// As number(), also returning the token's text (a view of the input) for
  /// callers that read integers exactly.
  [[nodiscard]] double number(std::string_view& token);
  /// Consume the next value without keeping it; its syntax is still checked.
  void skip();
  /// Only whitespace may follow the document.
  void end();

  /// Bytes consumed so far.
  [[nodiscard]] std::size_t offset() const { return pos_; }

 private:
  /// Throw parse_error("json: <what> at offset <offset()>").
  [[noreturn]] void fail(std::string_view what) const;
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  [[nodiscard]] char next_char() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c, std::string_view what) {
    if (next_char() != c) fail(what);
    ++pos_;
  }
  /// Count one more open container. Readers of nested values recurse, so
  /// hostile nesting is an error here rather than a stack overflow.
  void enter() {
    if (++depth_ > max_depth) fail("nesting deeper than 1000");
  }
  static constexpr int max_depth = 1000;
  /// Consume the string at pos_. Returns a view of its body in the text
  /// when it holds no escape; otherwise decodes it into `scratch`.
  [[nodiscard]] std::string_view string_body(std::string& scratch);
  /// Decode the string at pos_, appending its contents to `out`.
  void append_string(std::string& out);
  /// Decode the escape after a backslash at pos_ into `out` (at most as
  /// many bytes as it consumes); returns the bytes written.
  std::size_t decode_escape(char* out);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open around pos_
};

template <typename OnMember>
void reader::object(OnMember&& on_member) {
  skip_ws();
  expect('{', "expected an object");
  enter();
  skip_ws();
  if (next_char() == '}') {
    ++pos_;
    --depth_;
    return;
  }
  std::string scratch;
  for (;;) {
    skip_ws();
    const std::string_view name = string_body(scratch);
    skip_ws();
    expect(':', "expected ':'");
    on_member(name);
    skip_ws();
    const char c = next_char();
    ++pos_;
    if (c == '}') break;
    if (c != ',') {
      --pos_;
      fail("expected ',' or '}' in object");
    }
  }
  --depth_;
}

template <typename OnItem>
void reader::array(OnItem&& on_item) {
  skip_ws();
  expect('[', "expected an array");
  enter();
  skip_ws();
  if (next_char() == ']') {
    ++pos_;
    --depth_;
    return;
  }
  for (;;) {
    on_item();
    skip_ws();
    const char c = next_char();
    ++pos_;
    if (c == ']') break;
    if (c != ',') {
      --pos_;
      fail("expected ',' or ']' in array");
    }
  }
  --depth_;
}

// -------------------------------------------------------------------------
// Writers: append into the caller's buffer.

/// Append `text` escaped for the inside of a JSON string: `"` and `\` are
/// backslashed, \n \r \t keep their short forms, other control characters
/// become \u00xx, and every other byte passes through.
void append_escaped(std::string& out, std::string_view text);

/// Append an integer in decimal.
template <typename Int>
void append_integer(std::string& out, Int value) {
  static_assert(std::is_integral_v<Int>);
  char buf[24];
  const auto written = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, written.ptr);
}

/// Append a double: "null" when non-finite, integral values below 1e15 in
/// magnitude without a fraction, everything else as printf's %.9g.
void append_number(std::string& out, double value);

// -------------------------------------------------------------------------
// Document tree

class value;
using value_ptr = std::shared_ptr<value>;

class value {
 public:
  [[nodiscard]] kind type() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == kind::null; }

  /// Typed accessors; throw compact::error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<value_ptr>& as_array() const;
  [[nodiscard]] const std::map<std::string, value_ptr>& as_object() const;

  /// Object member by key, or nullptr when absent (or not an object).
  [[nodiscard]] const value* find(const std::string& key) const;
  /// Object member by key; throws compact::error when absent.
  [[nodiscard]] const value& at(const std::string& key) const;

  // Construction (used by parse; public for tests).
  static value_ptr make_null();
  static value_ptr make_bool(bool b);
  static value_ptr make_number(double n);
  static value_ptr make_string(std::string s);
  static value_ptr make_array(std::vector<value_ptr> items);
  static value_ptr make_object(std::map<std::string, value_ptr> members);

 private:
  kind kind_ = kind::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<value_ptr> array_;
  std::map<std::string, value_ptr> object_;
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// When an object repeats a key, the last copy wins.
[[nodiscard]] value_ptr parse(const std::string& text);

/// Parse the file at `path`; throws compact::error when unreadable.
[[nodiscard]] value_ptr parse_file(const std::string& path);

}  // namespace compact::json
