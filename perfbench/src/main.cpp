// perfbench: the repository's benchmark binary.
//
//   perfbench --workload <session|warm_read|rf3_write|ec_degraded_read>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints notes (sample counts, verification, ladder and self times), then
// as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{"<name>":{"value":..,"unit":".."}}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  Exits non-zero, printing no result, when the workload
// cannot be set up or run.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <session|warm_read|"
               "rf3_write|ec_degraded_read> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--out-dir") {
        o.out_dir = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");
  if (!perfbench::known_workload(o.workload)) return usage("unknown workload");
  if (!(o.seconds >= 1.0 && o.seconds <= 600.0)) return usage("--seconds out of range");
  ::mkdir(o.out_dir.c_str(), 0755);

  perfbench::Outcome out;
  try {
    if (const auto* shape = perfbench::storage_shape(o.workload)) {
      out = perfbench::run_storage(o, *shape);
    } else {
      out = perfbench::run_session_workload(o);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& n : out.notes) std::printf("# %s\n", n.c_str());
  if (out.metrics.empty()) {
    std::fprintf(stderr, "perfbench: %s produced no measurement\n",
                 o.workload.c_str());
    return 1;
  }

  std::string json = "{\"correct\": ";
  bool correct = out.correct;
  std::string metrics;
  for (const auto& m : out.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      std::printf("# metric %s is not finite\n", m.name.c_str());
      correct = false;
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + json_escape(m.name) + "\": {\"value\": " + buf +
               ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
