// e2e_bench — the end-to-end serving benchmark.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --dir <scratch dir>
//
// Prints per-op tallies and every metric by name and unit, then, as the
// last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --dir <scratch dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pxv::e2e::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--dir") {
      options.dir = value;
    } else {
      return Usage();
    }
  }
  pxv::e2e::WorkloadSpec spec;
  if (argc % 2 == 0 || options.dir.empty() || options.seconds <= 0 ||
      !pxv::e2e::FindWorkload(workload, &spec)) {
    return Usage();
  }
  const pxv::e2e::RunResult r = pxv::e2e::RunWorkload(spec, options);
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
