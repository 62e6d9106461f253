#include "args.hpp"

#include <charconv>

namespace perfbench {

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  // from_chars takes no sign, space or prefix for an unsigned type, and
  // reports overflow; requiring it to consume everything rejects the rest.
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) return std::nullopt;
  return value;
}

Args parse_args(int argc, const char* const* argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw UsageError{"missing value after " + std::string{flag}};
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const auto seed = parse_u64(value);
      if (!seed) {
        throw UsageError{"--seed must be an unsigned 64-bit decimal integer, got '" +
                         std::string{value} + "'"};
      }
      args.seed = *seed;
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto seconds = parse_u64(value);
      if (!seconds || *seconds < 1 || *seconds > 600) {
        throw UsageError{"--seconds must be an integer in [1, 600]"};
      }
      args.seconds = static_cast<int>(*seconds);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw UsageError{"--trace must be 0 or 1"};
      args.trace = value == "1";
      have_trace = true;
    } else {
      throw UsageError{"unknown argument " + std::string{flag}};
    }
  }
  if (args.self_test) {
    if (!have_seed) args.seed = 42;
    return args;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw UsageError{"required: --workload NAME --seed N --seconds S --trace 0|1"};
  }
  return args;
}

}  // namespace perfbench
