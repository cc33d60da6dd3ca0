#include "report.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "anahy/task_pool.hpp"

namespace perfbench {

void Metrics::add(std::string name, double value, std::string unit,
                  std::size_t samples) {
  all_.push_back({std::move(name), value, std::move(unit), samples});
}

void Metrics::append(const Metrics& other) {
  all_.insert(all_.end(), other.all_.begin(), other.all_.end());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Metrics::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < all_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", all_[i].value);
    out += (i ? ", " : "") + json_string(all_[i].name) + ": {\"value\": " +
           num + ", \"unit\": " + json_string(all_[i].unit) + "}";
  }
  return out + "}";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double rss_peak_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kib = 0;
      ss >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

namespace {
std::atomic<std::uint64_t> g_arena_peak{0};
}  // namespace

void note_pool_arena() {
  const std::uint64_t a = anahy::pool_snapshot().arena_bytes;
  std::uint64_t peak = g_arena_peak.load(std::memory_order_relaxed);
  while (a > peak && !g_arena_peak.compare_exchange_weak(peak, a)) {
  }
}

std::uint64_t pool_arena_peak() { return g_arena_peak.load(); }

}  // namespace perfbench
