#pragma once
// Small string helpers shared by the tools (list flags, sweep specs).

#include <charconv>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

namespace tfpe::util {

/// Split on `sep`, trimming spaces/tabs around each piece; empty pieces are
/// dropped ("a, b,,c" -> {"a","b","c"}).
std::vector<std::string> split_list(const std::string& text, char sep = ',');

/// `text` as a T when all of it parses (std::from_chars: no sign prefix
/// other than '-', no surrounding blanks); nullopt otherwise, including on
/// overflow.
template <class T>
std::optional<T> parse_number(const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

/// Join with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

}  // namespace tfpe::util
