#include "system.hpp"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>

#include "util/crc32c.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  return 0.0;
}

std::vector<std::uint64_t> host_cpu_ticks() {
  std::ifstream stat{"/proc/stat"};
  std::string label;
  stat >> label;
  std::vector<std::uint64_t> ticks;
  std::uint64_t value = 0;
  while (label == "cpu" && ticks.size() < 10 && stat >> value) ticks.push_back(value);
  return ticks;
}

namespace {

// Fields of the /proc/stat cpu line: user nice system idle iowait irq
// softirq steal guest guest_nice.
constexpr std::size_t kIowait = 4;
constexpr std::size_t kSteal = 7;

double tick_share_pct(const std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b, std::size_t field) {
  if (a.size() <= kSteal || b.size() != a.size()) return 0.0;
  std::uint64_t total = 0;
  // guest time is already counted in user; sum the first eight fields.
  for (std::size_t i = 0; i <= kSteal; ++i) total += b[i] - a[i];
  return total ? 100.0 * static_cast<double>(b[field] - a[field]) / static_cast<double>(total)
               : 0.0;
}

}  // namespace

double host_steal_pct(const std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b) {
  return tick_share_pct(a, b, kSteal);
}

double host_iowait_pct(const std::vector<std::uint64_t>& a,
                       const std::vector<std::uint64_t>& b) {
  return tick_share_pct(a, b, kIowait);
}

namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

}  // namespace

std::string tree_crc32c(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator{dir, ec};
       !ec && it != std::filesystem::recursive_directory_iterator{}; it.increment(ec)) {
    if (it->is_regular_file()) files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  tl::util::Crc32c crc;
  for (const auto& file : files) {
    const std::string rel = std::filesystem::relative(file, dir).generic_string();
    const std::string bytes = slurp(file);
    crc.update(rel.data(), rel.size());
    crc.update(bytes.data(), bytes.size());
  }
  return hex32(crc.value());
}

std::string hex32(std::uint32_t value) {
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", value);
  return hex;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::domain_error{"non-finite metric value"};
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc{}) throw std::domain_error{"unprintable metric value"};
  return {buf, end};
}

}  // namespace

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string Metrics::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, entry] = items_[i];
    if (i > 0) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(entry.first) +
           ", \"unit\": " + json_string(entry.second) + "}";
  }
  return out + "}";
}

void Manifest::set(const std::string& key, const std::string& value) {
  items_.push_back({key, json_string(value)});
}

void Manifest::set(const std::string& key, double value) {
  items_.push_back({key, json_number(value)});
}

std::string Manifest::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items_[i].first) + ": " + items_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
