#include "common/kv.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace gpufi::kv {

std::string format_double(double v) {
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                    std::numeric_limits<double>::max_digits10);
  return std::string(buf, ec == std::errc{} ? end : buf);
}

void put_kv(std::string& out, std::string_view key, std::string_view value) {
  if (value.find('\n') != std::string_view::npos)
    throw std::invalid_argument("newline in protocol value for key '" +
                                std::string(key) + "'");
  out += key;
  out += '=';
  out += value;
  out += '\n';
}

void put_kv(std::string& out, std::string_view key, std::uint64_t value) {
  put_kv(out, key, std::to_string(value));
}

bool for_each_kv(
    std::string_view payload, std::string* error,
    const std::function<bool(std::string_view key, std::string_view value)>&
        fn) {
  while (!payload.empty()) {
    const auto eol = payload.find('\n');
    const auto line = payload.substr(0, eol);
    payload.remove_prefix(eol == std::string_view::npos ? payload.size()
                                                        : eol + 1);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      if (error) *error = "malformed line (no '='): " + std::string(line);
      return false;
    }
    if (!fn(line.substr(0, eq), line.substr(eq + 1))) return false;
  }
  return true;
}

void Cursor::fail(std::string msg) {
  if (ok) {
    ok = false;
    error = std::move(msg);
  }
}

std::string_view Cursor::take_line() {
  if (!ok) return {};
  const auto nl = rest.find('\n');
  if (nl == std::string_view::npos) {
    fail("truncated payload");
    return {};
  }
  const auto line = rest.substr(0, nl);
  rest.remove_prefix(nl + 1);
  return line;
}

std::string_view Cursor::take_kv(std::string_view key) {
  const auto line = take_line();
  if (!ok) return {};
  if (line.size() < key.size() + 1 || line.substr(0, key.size()) != key ||
      line[key.size()] != '=') {
    fail("expected key '" + std::string(key) + "'");
    return {};
  }
  return line.substr(key.size() + 1);
}

std::string_view Fields::next_token() {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  const auto sp = rest.find(' ');
  const auto tok = rest.substr(0, sp);
  rest = sp == std::string_view::npos ? std::string_view{} : rest.substr(sp + 1);
  return tok;
}

void Fields::done() {
  if (!c->ok) return;
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  if (!rest.empty()) c->fail("trailing record fields");
}

}  // namespace gpufi::kv
