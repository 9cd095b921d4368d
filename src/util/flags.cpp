#include "util/flags.h"

#include <charconv>
#include <stdexcept>
#include <string_view>

namespace tft {

namespace {

[[noreturn]] void reject(const std::string& key, const std::string& value, const char* what) {
  throw std::invalid_argument("--" + key + "=" + value + ": expected " + what);
}

/// Parse the whole of `value` as T, or throw naming the key.
template <typename T>
T parse_all(const std::string& key, const std::string& value, const char* what) {
  T out{};
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) reject(key, value, what);
  return out;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

const std::string* Flags::find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : parse_all<std::int64_t>(key, *v, "an integer");
}

double Flags::get_double(const std::string& key, double def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : parse_all<double>(key, *v, "a number");
}

std::string Flags::get_string(const std::string& key, const std::string& def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : *v;
}

bool Flags::get_bool(const std::string& key, bool def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  reject(key, *v, "true|false|1|0|yes|no");
}

bool Flags::has(const std::string& key) const { return find(key) != nullptr; }

std::vector<std::string> Flags::unread() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!read_.contains(key)) out.push_back(key);
  }
  return out;
}

}  // namespace tft
