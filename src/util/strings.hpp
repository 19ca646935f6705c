// Small string utilities shared by the text parsers and table writers.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace compact {

/// Strip leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Split on any run of spaces/tabs; no empty tokens are produced.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// The line of `text` that starts at `pos`, without its '\n'; advances
/// `pos` past it. Call while pos < text.size().
[[nodiscard]] std::string_view next_line(std::string_view text,
                                         std::size_t& pos);

/// As split_ws, appending the tokens to `tokens` as views of `s`.
void append_split_ws(std::string_view s,
                     std::vector<std::string_view>& tokens);

/// Split on a single character delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// The rest of `is` as one string (the stream-taking parsers read their
/// input whole, then parse the text).
[[nodiscard]] std::string read_stream(std::istream& is);

/// Format a double with `digits` significant decimal places (fixed notation).
[[nodiscard]] std::string format_fixed(double value, int digits);

}  // namespace compact
