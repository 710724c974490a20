// The cost-based answer planner (rewrite/planner.h) and its façade
// Rewriter::Answer: candidate enumeration, executable-plan selection,
// missing-extension fall-through (the old path PXV_CHECK-crashed), and the
// serve-layer plan cache keyed by canonical pattern fingerprints.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "gen/paper.h"
#include "prob/query_eval.h"
#include "rewrite/planner.h"
#include "rewrite/rewriter.h"
#include "serve/view_server.h"
#include "pxml/parser.h"
#include "tp/parser.h"
#include "xml/label.h"

namespace pxv {
namespace {

constexpr double kTol = 1e-9;

std::map<PersistentId, double> ToMap(const std::vector<PidProb>& pps) {
  std::map<PersistentId, double> m;
  for (const PidProb& pp : pps) m[pp.pid] = pp.prob;
  return m;
}

std::map<PersistentId, double> DirectAnswer(const PDocument& pd,
                                            const Pattern& q) {
  std::map<PersistentId, double> m;
  for (const NodeProb& np : EvaluateTP(pd, q)) m[pd.pid(np.node)] = np.prob;
  return m;
}

void ExpectSameAnswers(const std::map<PersistentId, double>& expected,
                       const std::map<PersistentId, double>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [pid, prob] : expected) {
    ASSERT_TRUE(actual.count(pid)) << "missing pid " << pid;
    EXPECT_NEAR(prob, actual.at(pid), kTol) << "pid " << pid;
  }
}

// A document where a/b subtrees are plentiful but only one carries c: the
// unqualified view's extension is large, the qualified one's is small.
PDocument AbcDoc() {
  return *ParsePDocument(
      "a(b(ind(c@0.5), x), b(x), b(x, x), b(x), b(x), b(x), b(x), b(x))");
}

TEST(CompileQueryTest, EnumeratesTpAndTpiCandidates) {
  const std::vector<NamedView> views = {{"vbig", Tp("a/b")},
                                        {"vsmall", Tp("a/b[c]")}};
  const QueryPlan plan = CompileQuery(Tp("a/b[c]"), views);
  EXPECT_TRUE(plan.answerable());
  EXPECT_EQ(plan.fingerprint, Tp("a/b[c]").Fingerprint());
  // Both views support a TP rewriting of q = a/b[c].
  int tp_candidates = 0;
  for (const AnswerPlan& cand : plan.candidates) {
    if (cand.kind == AnswerPlan::Kind::kTp) ++tp_candidates;
  }
  EXPECT_EQ(tp_candidates, 2);
}

// Regression (src/rewrite/rewriter.cc:47 before this refactor): the first
// TP rewriting's view has no materialized extension. The old code did
// `exts.find(tp[0].view_name)` + PXV_CHECK — an abort. The planner now
// falls through to the next executable candidate.
TEST(PlannerTest, MissingExtensionFallsThroughToNextRewriting) {
  const PDocument pd = AbcDoc();
  Rewriter rewriter;
  rewriter.AddView("vbig", Tp("a/b"));      // tp[0] in discovery order.
  rewriter.AddView("vsmall", Tp("a/b[c]"));
  ViewExtensions exts = rewriter.Materialize(pd);
  ASSERT_EQ(exts.erase("vbig"), 1u);  // vbig never materialized.

  const Pattern q = Tp("a/b[c]");
  const auto answer = rewriter.Answer(q, exts);
  ASSERT_TRUE(answer.has_value());
  ExpectSameAnswers(DirectAnswer(pd, q), ToMap(*answer));

  int chosen = -1;
  const QueryPlan plan = rewriter.Compile(q);
  ExecuteQueryPlan(plan, exts, &chosen);
  ASSERT_GE(chosen, 0);
  EXPECT_EQ(plan.candidates[chosen].tp.view_name, "vsmall");
}

TEST(PlannerTest, NoExecutableCandidateIsNulloptNotACrash) {
  Rewriter rewriter;
  rewriter.AddView("v", Tp("a/b"));
  const ViewExtensions empty;  // Nothing materialized at all.
  EXPECT_FALSE(rewriter.Answer(Tp("a/b[c]"), empty).has_value());
}

// Cost-based selection: both views rewrite q, the first-discovered one has
// the much bigger extension. The old path executed tp[0] (vbig); the
// planner must pick vsmall and still produce the right probabilities.
TEST(PlannerTest, PicksCheaperPlanOverFirstDiscovered) {
  const PDocument pd = AbcDoc();
  Rewriter rewriter;
  rewriter.AddView("vbig", Tp("a/b"));
  rewriter.AddView("vsmall", Tp("a/b[c]"));
  const ViewExtensions exts = rewriter.Materialize(pd);
  ASSERT_GT(exts.at("vbig").size(), exts.at("vsmall").size());

  const Pattern q = Tp("a/b[c]");
  const QueryPlan plan = rewriter.Compile(q);
  ASSERT_GE(plan.candidates.size(), 2u);
  // Discovery order puts vbig first — the mis-pick of the old code.
  EXPECT_EQ(plan.candidates[0].tp.view_name, "vbig");

  int chosen = -1;
  const auto answer = ExecuteQueryPlan(plan, exts, &chosen);
  ASSERT_TRUE(answer.has_value());
  ASSERT_GE(chosen, 0);
  EXPECT_EQ(plan.candidates[chosen].tp.view_name, "vsmall");
  ExpectSameAnswers(DirectAnswer(pd, q), ToMap(*answer));

  const double cost_big = *EstimateCost(plan.candidates[0], exts);
  const double cost_small = *EstimateCost(plan.candidates[chosen], exts);
  EXPECT_LT(cost_small, cost_big);
}

TEST(PlannerTest, UnrestrictedFrIsPenalized) {
  // Same plan sizes, same extension: a restricted candidate must cost less
  // than an unrestricted one over any extension with ≥ 1 result.
  const PDocument pd = paper::PDocPER();
  Rewriter rewriter;
  rewriter.AddView("v2BON", paper::ViewV2BON());
  const ViewExtensions exts = rewriter.Materialize(pd);
  const QueryPlan plan = rewriter.Compile(paper::QueryBON());
  const AnswerPlan* tp_plan = nullptr;
  for (const AnswerPlan& cand : plan.candidates) {
    if (cand.kind == AnswerPlan::Kind::kTp) tp_plan = &cand;
  }
  ASSERT_NE(tp_plan, nullptr);
  ASSERT_TRUE(tp_plan->tp.restricted);
  const double restricted_cost = *EstimateCost(*tp_plan, exts);
  AnswerPlan unrestricted = *tp_plan;
  unrestricted.tp.restricted = false;
  EXPECT_GT(*EstimateCost(unrestricted, exts), restricted_cost);
}

// The exp-node surcharge: ExpDpCost sums |exp distribution| × live subtree
// size per exp node, and the planner charges it on top of live_size() — the
// DP re-walks an exp node's children once per explicit subset, so grafting
// exp structure into an extension must raise its estimated cost by more
// than the handful of nodes added.
TEST(PlannerTest, ExpNodesRaiseEstimatedCost) {
  const PDocument pd = AbcDoc();
  Rewriter rewriter;
  rewriter.AddView("v", Tp("a/b"));
  ViewExtensions exts = rewriter.Materialize(pd);
  const QueryPlan plan = rewriter.Compile(Tp("a/b[c]"));
  const AnswerPlan* cand = nullptr;
  for (const AnswerPlan& c : plan.candidates) {
    if (c.kind == AnswerPlan::Kind::kTp && c.tp.view_name == "v") cand = &c;
  }
  ASSERT_NE(cand, nullptr);

  PDocument& ext = exts.at("v");
  EXPECT_EQ(ext.ExpDpCost(), 0.0);  // Materialized extensions are exp-free.
  const double live0 = ext.live_size();
  const double base_cost = *EstimateCost(*cand, exts);

  // Graft one exp node with 2 children and 3 subsets: live size grows by 3,
  // ExpDpCost by 3 subsets × 3 subtree nodes = 9.
  const NodeId exp = ext.AddExp(ext.root());
  ext.AddOrdinary(exp, Intern("y"));
  ext.AddOrdinary(exp, Intern("z"));
  ext.SetExpDistribution(exp, {{{0, 1}, 0.4}, {{0}, 0.3}, {{1}, 0.2}});
  EXPECT_EQ(ext.ExpDpCost(), 9.0);
  EXPECT_EQ(ext.ExpDpCost(), 9.0);  // Cached per uid; stable on re-read.

  // Cost scales with (live + exp surcharge): per-node factor recovered from
  // the base estimate, so the assertion pins the exact charge.
  const double with_exp = *EstimateCost(*cand, exts);
  EXPECT_NEAR(with_exp, base_cost / live0 * (live0 + 3 + 9), 1e-9);

  // A probability-only mutation of the distribution re-keys the uid cache:
  // five subsets now, surcharge 15.
  ext.SetExpDistribution(
      exp, {{{0, 1}, 0.2}, {{0}, 0.2}, {{1}, 0.2}, {{}, 0.2}, {{0, 1}, 0.2}});
  EXPECT_EQ(ext.ExpDpCost(), 15.0);
  EXPECT_GT(*EstimateCost(*cand, exts), with_exp);
}

TEST(PlannerTest, MissingTpiMemberExtensionDisablesTpiCandidate) {
  // q_RBON compiles to a TP candidate via `rick` plus a TP∩ candidate over
  // {rick, all}. Without `all`'s extension the TP∩ plan is not executable
  // but the TP plan still serves; without `rick`'s, nothing is executable
  // and Answer must return nullopt — the old code crashed on the missing
  // tp[0] extension, and ExecuteTpiRewriting would throw on exts.at().
  const PDocument pd = paper::PDocPER();
  Rewriter rewriter;
  rewriter.AddView("rick", Tp("IT-personnel//person[name/Rick]/bonus"));
  rewriter.AddView("all", Tp("IT-personnel//person/bonus"));
  const Pattern q = paper::QueryRBON();
  const QueryPlan plan = rewriter.Compile(q);
  ASSERT_GE(plan.candidates.size(), 2u);

  ViewExtensions exts = rewriter.Materialize(pd);
  ASSERT_EQ(exts.erase("all"), 1u);
  const auto answer = rewriter.Answer(q, exts);
  ASSERT_TRUE(answer.has_value());
  ExpectSameAnswers(DirectAnswer(pd, q), ToMap(*answer));

  ViewExtensions no_rick = rewriter.Materialize(pd);
  ASSERT_EQ(no_rick.erase("rick"), 1u);
  EXPECT_FALSE(rewriter.Answer(q, no_rick).has_value());
}

// ------------------------------------------------------------ ViewServer ----

TEST(ViewServerTest, AnswersMatchDirectEvaluation) {
  ViewServer server;
  server.AddView("v2BON", paper::ViewV2BON());
  server.Materialize(paper::PDocPER());
  const auto answer = server.Answer(paper::QueryBON());
  ASSERT_TRUE(answer.has_value());
  ExpectSameAnswers(DirectAnswer(paper::PDocPER(), paper::QueryBON()),
                    ToMap(*answer));
}

TEST(ViewServerTest, PlanCacheHitsOnRepeatedAndIsomorphicQueries) {
  ViewServer server;
  server.AddView("v", Tp("a/b"));
  server.Materialize(AbcDoc());

  const Pattern q1 = Tp("a/b[c][x]");
  const Pattern q2 = Tp("a/b[x][c]");  // Isomorphic: predicates reordered.
  ASSERT_EQ(q1.Fingerprint(), q2.Fingerprint());

  server.Answer(q1);
  ViewServerStats stats = server.stats();
  EXPECT_EQ(stats.plan_cache_misses, 1);
  EXPECT_EQ(stats.plan_cache_hits, 0);

  server.Answer(q1);
  server.Answer(q2);  // Isomorphic query must reuse q1's plan.
  stats = server.stats();
  EXPECT_EQ(stats.plan_cache_misses, 1);
  EXPECT_EQ(stats.plan_cache_hits, 2);
  EXPECT_EQ(stats.queries, 3);
}

TEST(ViewServerTest, AnswerAllMatchesIndividualAnswers) {
  ViewServer server;
  server.AddView("v1BON", paper::ViewV1BON());
  server.AddView("v2BON", paper::ViewV2BON());
  server.Materialize(paper::PDocPER());
  const std::vector<Pattern> queries = {paper::QueryBON(), paper::QueryRBON(),
                                        paper::QueryBON()};
  const auto batched = server.AnswerAll(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto single = server.Answer(queries[i]);
    ASSERT_EQ(single.has_value(), batched[i].has_value()) << "query " << i;
    if (single.has_value()) {
      ExpectSameAnswers(ToMap(*single), ToMap(*batched[i]));
    }
  }
}

TEST(ViewServerTest, AnswerBeforeMaterializeIsNullopt) {
  ViewServer server;
  server.AddView("v2BON", paper::ViewV2BON());
  EXPECT_FALSE(server.Answer(paper::QueryBON()).has_value());
  EXPECT_EQ(server.stats().unanswerable, 1);
}

TEST(ViewServerTest, SetExtensionsServesPartialSets) {
  ViewServer server;
  server.AddView("vbig", Tp("a/b"));
  server.AddView("vsmall", Tp("a/b[c]"));
  const PDocument pd = AbcDoc();
  Rewriter loader;
  loader.AddView("vsmall", Tp("a/b[c]"));
  server.SetExtensions(loader.Materialize(pd));  // Only vsmall present.
  const auto answer = server.Answer(Tp("a/b[c]"));
  ASSERT_TRUE(answer.has_value());
  ExpectSameAnswers(DirectAnswer(pd, Tp("a/b[c]")), ToMap(*answer));
}

TEST(PlanCacheTest, LruEviction) {
  PlanCache cache(/*capacity=*/2);
  auto plan = [](uint64_t fp) {
    auto p = std::make_shared<QueryPlan>();
    p->fingerprint = fp;
    return std::shared_ptr<const QueryPlan>(p);
  };
  cache.Insert("a", plan(1));
  cache.Insert("b", plan(2));
  EXPECT_NE(cache.Lookup("a"), nullptr);  // Refresh a → b becomes LRU.
  cache.Insert("c", plan(3));             // Evicts b.
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, InsertKeepsFirstPlanOnRace) {
  PlanCache cache(8);
  auto p1 = std::make_shared<const QueryPlan>();
  auto p2 = std::make_shared<const QueryPlan>();
  EXPECT_EQ(cache.Insert("k", p1), p1);
  EXPECT_EQ(cache.Insert("k", p2), p1);  // Second compile loses, reuses p1.
}

// Runs `compile` as a GetOrCompile for `key` on its own thread and returns
// once the compile has started; the compile then blocks until `open` fires.
std::thread CompileBlockedOn(PlanCache* cache, const std::string& key,
                             std::shared_future<void> open,
                             std::function<std::shared_ptr<const QueryPlan>()>
                                 compile,
                             std::shared_ptr<const QueryPlan>* out) {
  std::promise<void> started;
  std::future<void> has_started = started.get_future();
  std::thread t([cache, key, open, compile = std::move(compile), out,
                 started = std::move(started)]() mutable {
    try {
      *out = cache->GetOrCompile(key, [&] {
        started.set_value();
        open.wait();
        return compile();
      });
    } catch (const std::runtime_error&) {
    }
  });
  has_started.wait();
  return t;
}

TEST(PlanCacheTest, GetOrCompileIsSingleFlightPerKey) {
  PlanCache cache(8);
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  std::atomic<int> compiles_a{0};
  std::shared_ptr<const QueryPlan> first;
  std::thread compiler = CompileBlockedOn(
      &cache, "a", opened,
      [&] {
        compiles_a.fetch_add(1);
        return std::make_shared<const QueryPlan>();
      },
      &first);

  // Another key never waits on a's compile.
  auto b = std::async(std::launch::async, [&] {
    return cache.GetOrCompile("b", [] {
      return std::make_shared<const QueryPlan>();
    });
  });
  const bool b_done =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(b_done) << "GetOrCompile(b) blocked behind a's compile";

  // A second caller for a waits for the compile in flight.
  std::shared_ptr<const QueryPlan> second;
  std::thread waiter([&] {
    second = cache.GetOrCompile("a", [&] {
      compiles_a.fetch_add(1);
      return std::make_shared<const QueryPlan>();
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  open.set_value();
  compiler.join();
  waiter.join();
  EXPECT_NE(b.get(), nullptr);

  ASSERT_NE(first, nullptr);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(compiles_a.load(), 1);
  EXPECT_EQ(cache.misses(), 2);  // a and b.
  EXPECT_EQ(cache.hits(), 1);    // The waiter.
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, GetOrCompileReleasesKeyWhenCompileThrows) {
  PlanCache cache(8);
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  std::shared_ptr<const QueryPlan> failed;
  std::thread thrower = CompileBlockedOn(
      &cache, "k", opened,
      []() -> std::shared_ptr<const QueryPlan> {
        throw std::runtime_error("compile failed");
      },
      &failed);
  // The waiter wakes to find k neither cached nor in flight and compiles.
  int waiter_compiles = 0;
  std::shared_ptr<const QueryPlan> plan;
  std::thread waiter([&] {
    plan = cache.GetOrCompile("k", [&] {
      ++waiter_compiles;
      return std::make_shared<const QueryPlan>();
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  open.set_value();
  thrower.join();
  waiter.join();
  EXPECT_EQ(failed, nullptr);
  EXPECT_NE(plan, nullptr);
  EXPECT_EQ(waiter_compiles, 1);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, CompilesInFlightDoNotCountTowardCapacity) {
  PlanCache cache(/*capacity=*/1);
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  std::shared_ptr<const QueryPlan> a;
  std::thread compiler = CompileBlockedOn(
      &cache, "a", opened, [] { return std::make_shared<const QueryPlan>(); },
      &a);
  cache.GetOrCompile("b", [] { return std::make_shared<const QueryPlan>(); });
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup("b"), nullptr);  // a's compile evicted nothing.
  open.set_value();
  compiler.join();
  EXPECT_EQ(cache.size(), 1u);  // a's insert evicts b.
  EXPECT_EQ(cache.Lookup("a").get(), a.get());
  EXPECT_EQ(cache.Lookup("b"), nullptr);
}

}  // namespace
}  // namespace pxv
