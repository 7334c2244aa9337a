#include "body_check.h"

namespace nsky::perfbench {

namespace {

constexpr std::string_view kSecondsKey = "\"seconds\":";

size_t SkipNumber(std::string_view s, size_t i) {
  while (i < s.size() &&
         std::string_view("0123456789.eE+-").find(s[i]) != std::string_view::npos) {
    ++i;
  }
  return i;
}

}  // namespace

uint64_t HashModuloSeconds(std::string_view s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  size_t i = 0;
  while (i < s.size()) {
    if (s.compare(i, kSecondsKey.size(), kSecondsKey) == 0) {
      i = SkipNumber(s, i + kSecondsKey.size());
      continue;
    }
    h = (h ^ static_cast<unsigned char>(s[i++])) * 1099511628211ull;
  }
  return h;
}

}  // namespace nsky::perfbench
