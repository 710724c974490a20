// The benchmark's own tests: the op stream is a function of the seed,
// percentiles are nearest-rank, and a short run of every workload passes
// the oracle, answers through both TP and TP∩ plans, and reports exactly
// the metrics BENCHMARK.json declares.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench.h"

namespace pxv {
namespace e2e {
namespace {

std::vector<Op> Take(const WorkloadSpec& spec, uint64_t seed, int client,
                     int n) {
  OpStream stream(spec, seed, client, 16);
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) ops.push_back(stream.Next());
  return ops;
}

TEST(OpStreamTest, SameSeedGivesSameStream) {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec spec;
    ASSERT_TRUE(FindWorkload(name, &spec));
    EXPECT_EQ(Take(spec, 7, 0, 500), Take(spec, 7, 0, 500)) << name;
    EXPECT_NE(Take(spec, 7, 0, 500), Take(spec, 8, 0, 500)) << name;
    EXPECT_NE(Take(spec, 7, 0, 500), Take(spec, 7, 1, 500)) << name;
  }
}

TEST(OpStreamTest, EveryRoundHasTheSpecComposition) {
  WorkloadSpec spec;
  ASSERT_TRUE(FindWorkload("structural_churn", &spec));
  OpStream stream(spec, 3, 0, 16);
  for (int round = 0; round < 5; ++round) {
    std::map<OpKind, int> seen;
    do {
      const Op op = stream.Next();
      ++seen[op.kind];
      EXPECT_GE(op.doc, 0);
      EXPECT_LT(op.doc, 16);
    } while (!stream.RoundDone());
    std::map<OpKind, int> want(spec.round.begin(), spec.round.end());
    EXPECT_EQ(seen, want) << "round " << round;
  }
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {40, 15, 50, 35, 20};
  EXPECT_EQ(Percentile(v, 5), 15);
  EXPECT_EQ(Percentile(v, 30), 20);
  EXPECT_EQ(Percentile(v, 40), 20);
  EXPECT_EQ(Percentile(v, 50), 35);
  EXPECT_EQ(Percentile(v, 100), 50);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 50), 50);
  EXPECT_EQ(Percentile(hundred, 99), 99);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 99), 7);
}

/// Metric names of one section of BENCHMARK.json.
std::set<std::string> DeclaredMetrics(const std::string& section) {
  std::ifstream in(std::string(E2EBENCH_DIR) + "/../BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  size_t pos = all.find("\"" + section + "\"");
  EXPECT_NE(pos, std::string::npos) << section;
  const size_t end = all.find(']', pos);
  std::set<std::string> names;
  const std::string key = "\"name\": \"";
  while ((pos = all.find(key, pos)) != std::string::npos && pos < end) {
    pos += key.size();
    names.insert(all.substr(pos, all.find('"', pos) - pos));
  }
  return names;
}

class WorkloadRunTest : public ::testing::TestWithParam<bool> {};

TEST_P(WorkloadRunTest, ShortRunOfEveryWorkloadPassesTheOracle) {
  const bool trace = GetParam();
  const std::set<std::string> declared =
      DeclaredMetrics(trace ? "per_layer" : "end_to_end");
  ASSERT_FALSE(declared.empty());
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec spec;
    ASSERT_TRUE(FindWorkload(name, &spec));
    RunOptions options;
    options.seed = 5;
    options.seconds = 0.5;
    options.trace = trace;
    options.dir = (std::filesystem::current_path() / "e2e_test_runs").string();
    const RunResult r = RunWorkload(spec, options);
    EXPECT_TRUE(r.correct) << name;
    EXPECT_GT(r.attempted, 0) << name;
    EXPECT_EQ(r.failed, 0) << name;
    std::set<std::string> reported;
    for (const auto& [metric, value] : r.metrics) {
      reported.insert(metric);
      if (!trace) {
        EXPECT_GT(value.value, 0) << name << " " << metric;
      }
    }
    EXPECT_EQ(reported, declared) << name;
    if (trace) {
      EXPECT_GT(r.metrics.at("rewrite.tp_plans_chosen").value, 0) << name;
      EXPECT_GT(r.metrics.at("rewrite.tpi_plans_chosen").value, 0) << name;
    } else {
      for (const char* metric : {"throughput_ops_s", "fanout_p50_ms",
                                 "answer_p99_us", "apply_p99_us"}) {
        EXPECT_GT(r.printed_only.at(metric).value, 0) << name << " " << metric;
      }
    }
    EXPECT_GT(r.printed_only.at("checkpoint_p50_ms").value, 0) << name;
    EXPECT_GT(r.printed_only.at("recover_s").value, 0) << name;
    // The run removed its own directory and nothing else.
    EXPECT_TRUE(std::filesystem::is_empty(options.dir)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, WorkloadRunTest, ::testing::Bool());

TEST(RunDirTest, LeavesOtherFilesUnderTheScratchRootAlone) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "e2e_test_keep";
  std::filesystem::create_directories(dir);
  const std::filesystem::path keep = dir / "keep.txt";
  std::ofstream(keep) << "kept";
  WorkloadSpec spec;
  ASSERT_TRUE(FindWorkload("serve_mix", &spec));
  RunOptions options;
  options.seconds = 0.1;
  options.dir = dir.string();
  EXPECT_TRUE(RunWorkload(spec, options).correct);
  EXPECT_TRUE(std::filesystem::exists(keep));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace e2e
}  // namespace pxv
