// Concurrency stress for the serving layer, written to run under
// ThreadSanitizer (the CI tsan job builds with -fsanitize=thread): several
// threads hammer AnswerAll and Answer while another rematerializes the
// extension snapshot, plus a Label-pool contention test (the interner is the
// one process-wide mutable structure every layer shares).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gen/paper.h"
#include "serve/view_server.h"
#include "tp/parser.h"
#include "util/thread_pool.h"
#include "xml/label.h"

namespace pxv {
namespace {

constexpr double kTol = 1e-9;

std::map<PersistentId, double> ToMap(const std::vector<PidProb>& pps) {
  std::map<PersistentId, double> m;
  for (const PidProb& pp : pps) m[pp.pid] = pp.prob;
  return m;
}

TEST(ServeStressTest, ConcurrentAnswerAllAndMaterialize) {
  ViewServer server;
  server.AddView("v1BON", paper::ViewV1BON());
  server.AddView("v2BON", paper::ViewV2BON());
  const PDocument pd = paper::PDocPER();
  server.Materialize(pd);

  // Reference answers, computed single-threaded.
  const auto ref_bon = server.Answer(paper::QueryBON());
  const auto ref_rbon = server.Answer(paper::QueryRBON());
  ASSERT_TRUE(ref_bon.has_value());
  ASSERT_TRUE(ref_rbon.has_value());
  const auto expect_bon = ToMap(*ref_bon);
  const auto expect_rbon = ToMap(*ref_rbon);

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Reader threads: batched and single answers, repeatedly.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const std::vector<Pattern> queries = {paper::QueryBON(),
                                            paper::QueryRBON()};
      for (int r = 0; r < kRounds; ++r) {
        const auto batch = server.AnswerAll(queries);
        if (batch.size() != 2 || !batch[0].has_value() ||
            !batch[1].has_value()) {
          ++failures;
          continue;
        }
        const auto got_bon = ToMap(*batch[0]);
        const auto got_rbon = ToMap(*batch[1]);
        if (got_bon.size() != expect_bon.size() ||
            got_rbon.size() != expect_rbon.size()) {
          ++failures;
          continue;
        }
        for (const auto& [pid, prob] : expect_bon) {
          const auto it = got_bon.find(pid);
          if (it == got_bon.end() || std::fabs(it->second - prob) > kTol) {
            ++failures;
          }
        }
      }
    });
  }
  // Writer thread: republishes the extension snapshot concurrently.
  threads.emplace_back([&] {
    for (int r = 0; r < kRounds; ++r) server.Materialize(pd);
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const ViewServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, 2 + kThreads * kRounds * 2);
  EXPECT_EQ(stats.materializations, 1 + kRounds);
  // After the first two compiles every query hit the plan cache.
  EXPECT_EQ(stats.plan_cache_misses, 2);
  EXPECT_EQ(stats.plan_cache_hits, stats.queries - 2);
}

TEST(ServeStressTest, ConcurrentPlanCompilationConverges) {
  // Many threads race to compile the same (uncached) queries; the cache
  // must converge on one plan instance per canonical form.
  ViewServer server;
  server.AddView("v", Tp("a/b"));
  server.SetExtensions({});
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const QueryPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Isomorphic variants map to the same cache slot.
      plans[t] = server.PlanFor(t % 2 == 0 ? Tp("a/b[c][d]") : Tp("a/b[d][c]"));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[t].get(), plans[0].get()) << "thread " << t;
  }
  EXPECT_EQ(server.plan_cache().size(), 1u);
  // Single-flight: one thread compiles, the other seven wait and hit.
  const ViewServerStats stats = server.stats();
  EXPECT_EQ(stats.plan_cache_misses, 1);
  EXPECT_EQ(stats.plan_cache_hits, kThreads - 1);
}

TEST(ServeStressTest, ParallelMaterializeMatchesSerial) {
  Rewriter rewriter;
  rewriter.AddView("v1BON", paper::ViewV1BON());
  rewriter.AddView("v2BON", paper::ViewV2BON());
  rewriter.AddView("names", Tp("IT-personnel//person/name"));
  rewriter.AddView("persons", Tp("IT-personnel//person"));
  const PDocument pd = paper::PDocPER();
  const ViewExtensions serial = rewriter.Materialize(pd);
  ThreadPool pool(4);
  const ViewExtensions parallel = rewriter.Materialize(pd, pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [name, ext] : serial) {
    const auto it = parallel.find(name);
    ASSERT_NE(it, parallel.end()) << name;
    EXPECT_EQ(ext.DebugString(), it->second.DebugString()) << name;
  }
}

TEST(LabelPoolStressTest, ConcurrentInternAndLookup) {
  // The interner must give one id per spelling under contention, and
  // LabelName must stay readable while other threads insert.
  constexpr int kThreads = 8;
  constexpr int kLabels = 200;
  std::vector<std::vector<Label>> ids(kThreads,
                                      std::vector<Label>(kLabels, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLabels; ++i) {
        const std::string name =
            "stress-label-" + std::to_string(i % (kLabels / 2));
        const Label l = Intern(name);
        ids[t][i] = l;
        if (LabelName(l) != name) ids[t][i] = ~Label{0};  // Poison on mismatch.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace pxv
