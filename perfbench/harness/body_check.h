// Output checks on nsky.skyline.v1 bodies.
//
// Two answers to the same query on the same graph differ only in their
// wall-clock "seconds" values; the hash below skips them, so comparing two
// bodies' hashes compares everything else.
#ifndef NSKY_PERFBENCH_HARNESS_BODY_CHECK_H_
#define NSKY_PERFBENCH_HARNESS_BODY_CHECK_H_

#include <cstdint>
#include <string_view>

namespace nsky::perfbench {

// FNV-1a of `s` with every "seconds" number skipped.
uint64_t HashModuloSeconds(std::string_view s);

}  // namespace nsky::perfbench

#endif  // NSKY_PERFBENCH_HARNESS_BODY_CHECK_H_
