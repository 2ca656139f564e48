// perfbench: end-to-end benchmark of the ARTEMIS pipeline, from MRT
// bytes to hijack alerts.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints a fingerprint line (machine, build, seed, input hashes) and, as
// the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). The same object, fingerprint included, goes to
// DIR/results/<workload>-trace<0|1>.json. Exit status 0 only when every
// alert, ledger, replay and traced-vs-untraced check passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR]\nworkloads:");
  for (const auto& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
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

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string fingerprint(const perfbench::RunOptions& o, const perfbench::RunResult& r) {
  std::ostringstream out;
  out << "{\"cpu\": " << json_string(cpu_model())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(compiler())
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
      << ", \"seconds\": " << json_number(o.seconds) << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"inputs\": {";
  bool first = true;
  for (const auto& [name, hash] : r.inputs) {
    out << (first ? "" : ", ") << json_string(name) << ": " << json_string(hash);
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string result_line(const perfbench::RunResult& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct() ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : r.metrics) {
    out << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("--seed needs an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0) || o.seconds > 600) {
        usage("--seconds needs a number in (0, 600]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (arg == "--out") {
      o.out_dir = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are all required");
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) known = known || name == o.workload;
  if (!known) usage("unknown workload " + o.workload);

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const auto& e : r.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());

  const std::string fp = fingerprint(o, r);
  const std::string line = result_line(r);
  std::ostringstream details;
  details << "{";
  bool first = true;
  for (const auto& [name, value] : r.details) {
    details << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  details << "}";

  const auto dir = std::filesystem::path(o.out_dir) / "results";
  std::filesystem::create_directories(dir);
  std::ofstream file(dir / (o.workload + "-trace" + (o.trace ? "1" : "0") + ".json"));
  file << "{\"fingerprint\": " << fp << ", \"details\": " << details.str()
       << ", \"result\": " << line << "}\n";

  std::printf("{\"fingerprint\": %s}\n", fp.c_str());
  std::printf("{\"details\": %s}\n", details.str().c_str());
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
