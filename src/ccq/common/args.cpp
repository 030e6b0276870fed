#include "ccq/common/args.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <sstream>

#include "ccq/common/error.hpp"

namespace ccq {

namespace {

/// `text` as an integer within [lo, hi], or a ccq::Error naming `--key`:
/// never wrapped or narrowed.
long long parse_int(const std::string& key, const std::string& text,
                    long long lo, long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  CCQ_CHECK(end != text.c_str() && *end == '\0',
            "--" + key + " expects an integer, got: " + text);
  CCQ_CHECK(errno != ERANGE && parsed >= lo && parsed <= hi,
            "--" + key + " " + text + " is out of range [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return parsed;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    command_ = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    std::string token = argv[i];
    CCQ_CHECK(token.rfind("--", 0) == 0,
              "expected --key, got: " + token +
                  (i > 1 ? " (after " + std::string(argv[i - 1]) + ")" : ""));
    const std::string key = token.substr(2);
    CCQ_CHECK(!key.empty(), "empty flag name");
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[key] = argv[i + 1];
      ++i;
    } else {
      values_[key] = "";  // bare flag
    }
  }
}

bool Args::has(const std::string& key) const {
  queried_[key] = true;
  return values_.count(key) != 0;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int Args::get_int(const std::string& key, int fallback) const {
  const std::string v = get(key, "");
  return v.empty() ? fallback
                   : static_cast<int>(parse_int(key, v, INT_MIN, INT_MAX));
}

std::uint64_t Args::get_uint(const std::string& key,
                             std::uint64_t fallback) const {
  const std::string v = get(key, "");
  if (v.empty()) return fallback;
  return static_cast<std::uint64_t>(parse_int(key, v, 0, LLONG_MAX));
}

double Args::get_double(const std::string& key, double fallback) const {
  const std::string v = get(key, "");
  if (v.empty()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  CCQ_CHECK(end != v.c_str() && *end == '\0',
            "--" + key + " expects a number, got: " + v);
  return parsed;
}

std::vector<int> Args::get_int_list(const std::string& key,
                                    std::vector<int> fallback) const {
  const std::string v = get(key, "");
  if (v.empty()) return fallback;
  std::vector<int> out;
  std::stringstream ss(v);
  std::string part;
  while (std::getline(ss, part, ',')) {
    out.push_back(static_cast<int>(parse_int(key, part, INT_MIN, INT_MAX)));
  }
  CCQ_CHECK(!out.empty(), "--" + key + " list is empty");
  return out;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!queried_.count(key)) out.push_back(key);
  }
  return out;
}

}  // namespace ccq
