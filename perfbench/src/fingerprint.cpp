#include "fingerprint.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t begin = colon + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    return line.substr(begin);
  }
  return "unknown";
}

}  // namespace

Fingerprint machine_fingerprint() {
  Fingerprint fp;
  fp.cpu_model = read_cpu_model();
  fp.nproc = std::thread::hardware_concurrency();
  fp.compiler = PERFBENCH_COMPILER;
  fp.flags = PERFBENCH_FLAGS;
  fp.build_type = PERFBENCH_BUILD_TYPE;
  const char* threads = std::getenv("BPROM_THREADS");
  fp.bprom_threads = threads != nullptr ? threads : "unset";
  fp.pool_threads = bprom::util::default_pool().size();
  return fp;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
