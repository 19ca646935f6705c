#include "util/strings.hpp"

#include <cstdio>
#include <istream>

namespace compact {

std::string_view trim(std::string_view s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string_view> tokens;
  append_split_ws(s, tokens);
  return {tokens.begin(), tokens.end()};
}

std::string_view next_line(std::string_view text, std::size_t& pos) {
  const std::size_t newline = text.find('\n', pos);
  const std::size_t end = newline == std::string_view::npos ? text.size()
                                                            : newline;
  const std::string_view line = text.substr(pos, end - pos);
  pos = newline == std::string_view::npos ? end : end + 1;
  return line;
}

void append_split_ws(std::string_view s,
                     std::vector<std::string_view>& tokens) {
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) tokens.push_back(s.substr(i, j - i));
    i = j;
  }
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      fields.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string read_stream(std::istream& is) {
  std::string text;
  char chunk[4096];
  while (is.read(chunk, sizeof chunk) || is.gcount() > 0)
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  return text;
}

std::string format_fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

}  // namespace compact
