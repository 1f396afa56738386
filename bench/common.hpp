// Shared helpers for the experiment harnesses: simple aligned table
// printing and common topology builders, so each bench binary reads like
// the experiment it reproduces.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace edp::bench {

/// Fixed-width text table: add_row with printf-style cells, print once.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    const auto line = [&] {
      std::printf("+");
      for (const auto w : width) {
        for (std::size_t i = 0; i < w + 2; ++i) {
          std::printf("-");
        }
        std::printf("+");
      }
      std::printf("\n");
    };
    line();
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(width[c]), headers_[c].c_str());
    }
    std::printf("\n");
    line();
    for (const auto& row : rows_) {
      std::printf("|");
      for (std::size_t c = 0; c < row.size(); ++c) {
        std::printf(" %-*s |", static_cast<int>(width[c]), row[c].c_str());
      }
      std::printf("\n");
    }
    line();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

inline void section(const char* title) {
  std::printf("\n=== %s ===\n\n", title);
}

/// The host's CPU model from /proc/cpuinfo ("unknown" where unreadable),
/// recorded next to results whose meaning depends on the hardware.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

/// HEAD of the source tree the bench was built from ("unknown" outside a
/// git checkout), so a recorded result names the code that produced it.
inline std::string git_sha() {
  std::string sha = "unknown";
  std::FILE* p = ::popen("git -C \"" EDP_SOURCE_DIR
                         "\" rev-parse HEAD 2>/dev/null", "r");
  if (p != nullptr) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr && buf[0] != '\0') {
      sha = buf;
      sha.erase(sha.find_last_not_of("\r\n") + 1);
    }
    ::pclose(p);
  }
  return sha;
}

}  // namespace edp::bench
