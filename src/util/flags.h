#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

/// \file flags.h
/// Minimal `--key=value` command-line parsing for examples and benches.
/// Not a general-purpose parser; just enough to make binaries scriptable.
///
/// Values parse strictly: `get_int`, `get_double` and `get_bool` accept only
/// a value that parses completely (`--n=2e3` is not an integer, `--x=on` is
/// not a bool) and otherwise throw std::invalid_argument naming the key.
/// Every getter and `has` records the key as read, so a binary can reject a
/// mistyped or retired option at the end of its run (`unread`). Read from a
/// single thread.

namespace tft {

class Flags {
 public:
  Flags(int argc, char** argv);

  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] std::string get_string(const std::string& key, const std::string& def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// Keys given on the command line that no getter or `has` has read, in
  /// key order.
  [[nodiscard]] std::vector<std::string> unread() const;

 private:
  /// The raw value of `key`, marking it read; null when absent.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace tft
