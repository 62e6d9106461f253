#pragma once

// Process-level measurements (wall and CPU clocks, peak RSS), the run
// manifest, and the one-line JSON result the benchmark prints last.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double wall_now();
/// Process CPU time (all threads), seconds.
double cpu_now();
/// Peak resident set size of the process (VmHWM), MiB; 0 when unavailable.
double peak_rss_mb();
/// Host CPU tick counters (the "cpu" line of /proc/stat).
std::vector<std::uint64_t> host_cpu_ticks();
/// Percent of host CPU ticks between two samples spent stolen by other
/// guests (steal) and waiting on I/O (iowait): noise the run did not cause.
double host_steal_pct(const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b);
double host_iowait_pct(const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b);
/// CRC32C over the relative paths and bytes of every file under `dir`, in
/// path order: identifies the simulator sources a run measured even where
/// the checkout carries no git metadata.
std::string tree_crc32c(const std::string& dir);

/// Eight lowercase hex digits.
std::string hex32(std::uint32_t value);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// Ordered name -> (value, unit) map, printed with every digit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Ordered name -> string map for the run manifest.
class Manifest {
 public:
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, double value);
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;  // value is JSON text
};

}  // namespace perfbench
