// Machine and build fingerprint stamped into every benchmark report, so a
// later comparison can tell like-for-like runs from runs on another host,
// compiler, build type or thread setting.
#pragma once

#include <string>

namespace perfbench {

struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string flags;
  std::string build_type;
  /// BPROM_THREADS as set in the environment, "unset" otherwise.
  std::string bprom_threads;
  /// Threads of the library's default pool.
  std::size_t pool_threads = 0;
};

Fingerprint machine_fingerprint();

/// Escape a string for a JSON string literal (quotes not included).
std::string json_escape(const std::string& text);

}  // namespace perfbench
