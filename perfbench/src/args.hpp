#pragma once

// Command line of the benchmark program:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test [--seed N]
//
// The seed is a full 64-bit unsigned integer; anything else is rejected
// rather than silently mapped to another seed.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace perfbench {

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool self_test = false;
};

/// Decimal digits only, no sign, no whitespace, no overflow past 2^64-1.
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Throws UsageError with a one-line reason on any malformed argument.
Args parse_args(int argc, const char* const* argv);

}  // namespace perfbench
