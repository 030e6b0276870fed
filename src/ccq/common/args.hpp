// Minimal command-line argument parser for the ccq tools.
//
// Grammar: `tool <command> [--key value]... [--flag]...`.  Unknown keys
// are collected and can be rejected by the caller; typed getters fall
// back to defaults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ccq {

class Args {
 public:
  /// Parse argv (argv[0] skipped).  The first non-flag token becomes the
  /// command; `--key value` pairs and bare `--flag`s follow.
  Args(int argc, const char* const* argv);

  const std::string& command() const { return command_; }

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Out-of-range values throw a ccq::Error naming the flag, never wrap.
  int get_int(const std::string& key, int fallback) const;
  /// Non-negative integer (counts, sizes, budgets, seeds), at most 2^63−1.
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_flag(const std::string& key) const { return has(key); }

  /// Comma-separated integer list, e.g. --ladder 8,4,2.
  std::vector<int> get_int_list(const std::string& key,
                                std::vector<int> fallback) const;

  /// Keys that were provided but never queried (typo detection).
  std::vector<std::string> unused() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace ccq
