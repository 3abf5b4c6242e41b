#include "report.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const auto n = values_.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values_[rank - 1];
}

double Samples::reported_quantile(double q, std::size_t min_beyond) const {
  const auto n = static_cast<double>(values_.size());
  if (n * (1.0 - q) < static_cast<double>(min_beyond)) return 0.0;
  return quantile(q);
}

void Report::fail(std::string why) {
  ++attempted;
  ++failed;
  problems.push_back(std::move(why));
}

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char text[49] = {};
    std::memcpy(text, regs, 48);
    std::string brand(text);
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

Fingerprint host_fingerprint() {
  Fingerprint fp;
  fp.cpu = cpu_brand();
  fp.nproc = std::max(1u, std::thread::hardware_concurrency());
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = FEM2_PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  fp.optimized = true;
#endif
  return fp;
}

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    default: break;
  }
  std::ostringstream os;
  os << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
  return os.str();
}

double peak_rss_mib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string result_json(const Report& report, bool correct,
                        const std::vector<MetricSpec>& catalogue) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : catalogue) {
    const auto it = report.metrics.find(spec.name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << json_string(spec.name)
       << ": {\"value\": " << json_number(value)
       << ", \"unit\": " << json_string(spec.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string context_json(const std::string& workload, std::uint64_t seed,
                         bool trace, const Fingerprint& fp,
                         const Report& report) {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << (trace ? 1 : 0) << ", \"host\": {"
     << "\"cpu\": " << json_string(fp.cpu) << ", \"nproc\": " << fp.nproc
     << ", \"compiler\": " << json_string(fp.compiler)
     << ", \"build_type\": " << json_string(fp.build_type)
     << ", \"optimized\": " << (fp.optimized ? "true" : "false")
     << ", \"db_filesystem\": " << json_string(fp.db_filesystem)
     << ", \"client_threads\": " << fp.client_threads
     << ", \"server_workers\": " << fp.server_workers
     << ", \"host_engine_threads\": " << fp.host_engine_threads
     << "}, \"raw\": {";
  bool first = true;
  for (const auto& [name, value] : report.raw) {
    os << (first ? "" : ", ") << json_string(name) << ": "
       << json_number(value);
    first = false;
  }
  os << "}, \"series\": {";
  first = true;
  for (const auto& [name, values] : report.series) {
    os << (first ? "" : ", ") << json_string(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i)
      os << (i ? ", " : "") << json_number(values[i]);
    os << "]";
    first = false;
  }
  os << "}, \"problems\": [";
  for (std::size_t i = 0; i < report.problems.size(); ++i)
    os << (i ? ", " : "") << json_string(report.problems[i]);
  os << "]}";
  return os.str();
}

}  // namespace perfbench
