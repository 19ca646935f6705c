#include "util/json.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

namespace compact::json {
namespace {

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

// UTF-8 encode one BMP code point into `out`; returns the bytes written.
// Surrogate halves are encoded one by one, not paired; our producers never
// emit them.
std::size_t encode_utf8(char* out, unsigned code) {
  if (code < 0x80) {
    out[0] = static_cast<char>(code);
    return 1;
  }
  if (code < 0x800) {
    out[0] = static_cast<char>(0xC0 | (code >> 6));
    out[1] = static_cast<char>(0x80 | (code & 0x3F));
    return 2;
  }
  out[0] = static_cast<char>(0xE0 | (code >> 12));
  out[1] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
  out[2] = static_cast<char>(0x80 | (code & 0x3F));
  return 3;
}

/// True when one of the eight bytes of `word` must be escaped in a JSON
/// string: a control character, '"' or '\\'. Each term is the exact
/// bitwise test for "some byte is below n" (n = 0x20, or n = 1 after an XOR
/// with the byte sought).
bool needs_escape(std::uint64_t word) {
  constexpr std::uint64_t ones = 0x0101010101010101ULL;
  constexpr std::uint64_t highs = 0x8080808080808080ULL;
  const std::uint64_t quote = word ^ (ones * '"');
  const std::uint64_t slash = word ^ (ones * '\\');
  return ((((word - ones * 0x20) & ~word) | ((quote - ones) & ~quote) |
           ((slash - ones) & ~slash)) &
          highs) != 0;
}

/// First `c` in [first, last), or last.
const char* find_char(const char* first, const char* last, char c) {
  const void* found =
      std::memchr(first, c, static_cast<std::size_t>(last - first));
  return found != nullptr ? static_cast<const char*>(found) : last;
}

/// The value strtod reads from a token of the form
/// -?digits(.digits)?([eE][+-]?digits)? with at most 15 digits and a decimal
/// exponent within 22 of zero, or nullopt for any other token. Such a value
/// is one exact integer times or over one exact power of ten, so a single
/// correctly rounded operation gives strtod's correctly rounded result
/// (Clinger's fast path).
std::optional<double> exact_decimal(std::string_view token) {
  static constexpr double powers[] = {
      1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
      1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
  std::size_t i = 0;
  const auto digit = [&] {
    return i < token.size() && token[i] >= '0' && token[i] <= '9';
  };
  const bool negative = token[0] == '-';
  if (negative) ++i;
  std::uint64_t mantissa = 0;  // wraps harmlessly past 15 digits
  int digits = 0;
  int scale = 0;
  if (!digit()) return std::nullopt;
  for (; digit(); ++i, ++digits) mantissa = mantissa * 10 + (token[i] - '0');
  if (i < token.size() && token[i] == '.') {
    ++i;
    if (!digit()) return std::nullopt;
    for (; digit(); ++i, ++digits, --scale)
      mantissa = mantissa * 10 + (token[i] - '0');
  }
  if (digits > 15) return std::nullopt;
  if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
    ++i;
    const bool minus = i < token.size() && token[i] == '-';
    if (i < token.size() && (token[i] == '-' || token[i] == '+')) ++i;
    if (!digit()) return std::nullopt;
    int exponent = 0;
    for (; digit() && exponent < 1000; ++i)
      exponent = exponent * 10 + (token[i] - '0');
    scale += minus ? -exponent : exponent;
  }
  if (i != token.size() || scale < -22 || scale > 22) return std::nullopt;
  const auto m = static_cast<double>(mantissa);
  const double value = scale >= 0 ? m * powers[scale] : m / powers[-scale];
  return negative ? -value : value;
}

value_ptr read_value(reader& in) {
  switch (in.peek()) {
    case kind::object: {
      std::map<std::string, value_ptr> members;
      in.object([&](std::string_view key) {
        value_ptr member = read_value(in);
        members.insert_or_assign(std::string(key), std::move(member));
      });
      return value::make_object(std::move(members));
    }
    case kind::array: {
      std::vector<value_ptr> items;
      in.array([&] { items.push_back(read_value(in)); });
      return value::make_array(std::move(items));
    }
    case kind::string: return value::make_string(in.string());
    case kind::boolean: return value::make_bool(in.boolean());
    case kind::null: in.null(); return value::make_null();
    case kind::number: break;
  }
  return value::make_number(in.number());
}

}  // namespace

// -------------------------------------------------------------------------
// reader

void reader::fail(std::string_view what) const {
  std::string message = "json: ";
  message += what;
  message += " at offset ";
  message += std::to_string(pos_);
  throw parse_error(message);
}

kind reader::peek() {
  skip_ws();
  switch (next_char()) {
    case '{': return kind::object;
    case '[': return kind::array;
    case '"': return kind::string;
    case 't':
    case 'f': return kind::boolean;
    case 'n': return kind::null;
    default: return kind::number;
  }
}

void reader::append_string(std::string& out) {
  expect('"', "expected a string");
  const char* const data = text_.data();
  const char* const end = data + text_.size();
  const char* run = data + pos_;
  const char* quote = find_char(run, end, '"');
  const char* slash = find_char(run, quote, '\\');
  std::size_t size = out.size();
  if (slash != quote) {
    // Escapes only shrink the text: decode in place into room for the raw
    // bytes, which grows only past an escaped quote.
    out.resize(size + static_cast<std::size_t>(quote - run));
    do {
      std::memcpy(out.data() + size, run,
                  static_cast<std::size_t>(slash - run));
      size += static_cast<std::size_t>(slash - run);
      pos_ = static_cast<std::size_t>(slash - data) + 1;
      size += decode_escape(out.data() + size);
      run = data + pos_;
      if (run > quote) {
        quote = find_char(run, end, '"');
        out.resize(size + static_cast<std::size_t>(quote - run));
      }
      slash = find_char(run, quote, '\\');
    } while (slash != quote);
    out.resize(size);
  }
  if (quote == end) {
    pos_ = text_.size();
    fail("unexpected end of input");
  }
  out.append(run, quote);
  pos_ = static_cast<std::size_t>(quote - data) + 1;
}

std::size_t reader::decode_escape(char* out) {
  const char escape = next_char();
  ++pos_;
  switch (escape) {
    case '"': *out = '"'; return 1;
    case '\\': *out = '\\'; return 1;
    case '/': *out = '/'; return 1;
    case 'b': *out = '\b'; return 1;
    case 'f': *out = '\f'; return 1;
    case 'n': *out = '\n'; return 1;
    case 'r': *out = '\r'; return 1;
    case 't': *out = '\t'; return 1;
    case 'u': {
      unsigned code = 0;
      for (int i = 0; i < 4; ++i) {
        const char h = next_char();
        ++pos_;
        code <<= 4;
        if (h >= '0' && h <= '9')
          code |= static_cast<unsigned>(h - '0');
        else if (h >= 'a' && h <= 'f')
          code |= static_cast<unsigned>(h - 'a' + 10);
        else if (h >= 'A' && h <= 'F')
          code |= static_cast<unsigned>(h - 'A' + 10);
        else
          fail("invalid \\u escape");
      }
      return encode_utf8(out, code);
    }
    default: fail("invalid escape");
  }
}

std::string_view reader::string_body(std::string& scratch) {
  if (next_char() != '"') fail("expected a string");
  const std::size_t begin = pos_ + 1;
  const std::size_t quote = text_.find('"', begin);
  if (quote != std::string_view::npos &&
      text_.substr(begin, quote - begin).find('\\') == std::string_view::npos) {
    pos_ = quote + 1;
    return text_.substr(begin, quote - begin);
  }
  scratch.clear();
  append_string(scratch);
  return scratch;
}

std::string reader::string() {
  skip_ws();
  std::string out;
  append_string(out);
  return out;
}

bool reader::boolean() {
  skip_ws();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    return false;
  }
  const char c = next_char();
  fail(c == 't' || c == 'f' ? "invalid literal" : "expected a boolean");
}

void reader::null() {
  skip_ws();
  if (text_.substr(pos_, 4) == "null") {
    pos_ += 4;
    return;
  }
  fail(next_char() == 'n' ? "invalid literal" : "expected null");
}

double reader::number() {
  std::string_view token;
  return number(token);
}

double reader::number(std::string_view& token) {
  skip_ws();
  const std::size_t start = pos_;
  if (next_char() == '-') ++pos_;
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  if (pos_ == start) {
    const char c = text_[start];
    const bool other_kind = c == '{' || c == '[' || c == '"' || c == 't' ||
                            c == 'f' || c == 'n';
    fail(other_kind ? "expected a number" : "expected a value");
  }
  token = text_.substr(start, pos_ - start);

  if (const std::optional<double> exact = exact_decimal(token)) return *exact;

  char buffer[64];
  std::string long_token;
  const char* c_str = buffer;
  if (token.size() < sizeof buffer) {
    std::memcpy(buffer, token.data(), token.size());
    buffer[token.size()] = '\0';
  } else {
    long_token.assign(token);
    c_str = long_token.c_str();
  }
  char* stop = nullptr;
  const double parsed = std::strtod(c_str, &stop);
  if (stop != c_str + token.size() || !std::isfinite(parsed)) {
    pos_ = start;
    fail("invalid number '" + std::string(token) + "'");
  }
  return parsed;
}

void reader::skip() {
  switch (peek()) {
    case kind::object: object([this](std::string_view) { skip(); }); return;
    case kind::array: array([this] { skip(); }); return;
    case kind::string: {
      std::string scratch;
      (void)string_body(scratch);
      return;
    }
    case kind::boolean: (void)boolean(); return;
    case kind::null: null(); return;
    case kind::number: (void)number(); return;
  }
}

void reader::end() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after document");
}

// -------------------------------------------------------------------------
// Writers

void append_escaped(std::string& out, std::string_view text) {
  static constexpr char hex[] = "0123456789abcdef";
  const char* const data = text.data();
  const std::size_t size = text.size();
  std::size_t run = 0;  // start of the bytes not yet appended
  std::size_t i = 0;
  while (i < size) {
    if (i + 8 <= size) {  // skip eight plain bytes at a time
      std::uint64_t word = 0;
      std::memcpy(&word, data + i, sizeof word);
      if (!needs_escape(word)) {
        i += 8;
        continue;
      }
    }
    const auto c = static_cast<unsigned char>(data[i++]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(data + run, i - 1 - run);
    run = i;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(data + run, size - run);
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    append_integer(out, static_cast<long long>(value));
    return;
  }
  // snprintf, not std::to_chars: the same bytes, without faulting in the
  // shortest-round-trip tables on every process's first call.
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.9g", value);
  out.append(buf, static_cast<std::size_t>(n));
}

// -------------------------------------------------------------------------
// Document tree

bool value::as_bool() const {
  check(kind_ == kind::boolean, "json: value is not a boolean");
  return bool_;
}

double value::as_number() const {
  check(kind_ == kind::number, "json: value is not a number");
  return number_;
}

const std::string& value::as_string() const {
  check(kind_ == kind::string, "json: value is not a string");
  return string_;
}

const std::vector<value_ptr>& value::as_array() const {
  check(kind_ == kind::array, "json: value is not an array");
  return array_;
}

const std::map<std::string, value_ptr>& value::as_object() const {
  check(kind_ == kind::object, "json: value is not an object");
  return object_;
}

const value* value::find(const std::string& key) const {
  if (kind_ != kind::object) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : it->second.get();
}

const value& value::at(const std::string& key) const {
  const value* found = find(key);
  check(found != nullptr, "json: missing object key '" + key + "'");
  return *found;
}

value_ptr value::make_null() { return std::make_shared<value>(); }

value_ptr value::make_bool(bool b) {
  auto v = std::make_shared<value>();
  v->kind_ = kind::boolean;
  v->bool_ = b;
  return v;
}

value_ptr value::make_number(double n) {
  auto v = std::make_shared<value>();
  v->kind_ = kind::number;
  v->number_ = n;
  return v;
}

value_ptr value::make_string(std::string s) {
  auto v = std::make_shared<value>();
  v->kind_ = kind::string;
  v->string_ = std::move(s);
  return v;
}

value_ptr value::make_array(std::vector<value_ptr> items) {
  auto v = std::make_shared<value>();
  v->kind_ = kind::array;
  v->array_ = std::move(items);
  return v;
}

value_ptr value::make_object(std::map<std::string, value_ptr> members) {
  auto v = std::make_shared<value>();
  v->kind_ = kind::object;
  v->object_ = std::move(members);
  return v;
}

value_ptr parse(const std::string& text) {
  reader in(text);
  value_ptr root = read_value(in);
  in.end();
  return root;
}

value_ptr parse_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw error("json: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse(buffer.str());
}

}  // namespace compact::json
