#include "oracle.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.h"
#include "gen/paper.h"
#include "prob/eval_session.h"
#include "prob/naive.h"

namespace pxv {
namespace e2e {
namespace {

std::vector<PidProb> SortedByPid(std::vector<PidProb> v) {
  std::sort(v.begin(), v.end(),
            [](const PidProb& a, const PidProb& b) { return a.pid < b.pid; });
  return v;
}

std::string Shape(const Pattern& q) { return q.CanonicalString(); }

}  // namespace

void Oracle::Fail(const std::string& why) {
  ++mismatches_;
  if (mismatches_ <= 10) std::fprintf(stderr, "oracle: %s\n", why.c_str());
}

void Oracle::Compare(const std::vector<PidProb>& got,
                     const std::vector<PidProb>& want, double tolerance,
                     const std::string& what) {
  ++checked_;
  const std::vector<PidProb> a = SortedByPid(got);
  const std::vector<PidProb> b = SortedByPid(want);
  if (a.size() != b.size()) {
    Fail(what + ": " + std::to_string(a.size()) + " answers, expected " +
         std::to_string(b.size()));
    return;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pid != b[i].pid || !(std::fabs(a[i].prob - b[i].prob) <= tolerance)) {
      Fail(what + ": pid " + std::to_string(a[i].pid) + " prob " +
           std::to_string(a[i].prob) + ", expected pid " +
           std::to_string(b[i].pid) + " prob " + std::to_string(b[i].prob));
      return;
    }
  }
}

std::vector<PidProb> Oracle::Direct(const PDocument& doc, const Pattern& q) {
  const auto start = std::chrono::steady_clock::now();
  EvalSession session(doc);
  std::vector<PidProb> out;
  for (const NodeProb& np : session.EvaluateTP(q)) {
    out.push_back({doc.pid(np.node), np.prob});
  }
  direct_eval_us_.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  return out;
}

void Oracle::CheckAnswer(const PDocument& doc, const Pattern& q,
                         const std::vector<PidProb>& got,
                         const std::string& what) {
  Compare(got, Direct(doc, q), kTolerance, what + " " + Shape(q));
}

void Oracle::CheckWhatIf(const PDocument& doc, const Pattern& q,
                         PersistentId pid, double prob,
                         const std::vector<PidProb>& got,
                         const std::string& what) {
  PDocument changed = doc;
  const NodeId node = changed.FindByPid(pid);
  if (node == kNullNode) {
    Fail(what + ": whatif pid " + std::to_string(pid) + " not in document");
    return;
  }
  changed.SetEdgeProb(node, prob);
  Compare(got, Direct(changed, q), kTolerance, what + " whatif " + Shape(q));
}

void Oracle::CheckFanout(ShardedCorpus& corpus,
                         const std::vector<ShardedCorpus::DocAnswers>& fanout,
                         const std::vector<std::string>& docs) {
  const std::vector<Pattern>& shapes = QueryShapes();
  std::map<std::string, const ShardedCorpus::DocAnswers*> by_name;
  for (const auto& d : fanout) by_name[d.doc] = &d;
  for (const std::string& name : docs) {
    ++checked_;
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      Fail("fanout lost document " + name);
      continue;
    }
    if (it->second->shard != corpus.ShardOf(name) ||
        it->second->answers.size() != shapes.size()) {
      Fail("fanout misplaced document " + name);
      continue;
    }
    for (size_t i = 0; i < shapes.size(); ++i) {
      const auto direct = corpus.Answer(name, shapes[i]);
      const auto& fanned = it->second->answers[i];
      bool same = direct.has_value() == fanned.has_value();
      if (same && direct.has_value()) {
        same = direct->size() == fanned->size();
        for (size_t j = 0; same && j < direct->size(); ++j) {
          same = (*direct)[j].pid == (*fanned)[j].pid &&
                 (*direct)[j].prob == (*fanned)[j].prob;
        }
      }
      if (!same) Fail("fanout differs from Answer on " + name + " " + Shape(shapes[i]));
    }
  }
}

void Oracle::CheckPaperConstants(ShardedCorpus& corpus,
                                 const std::string& name) {
  const struct {
    Pattern q;
    double want;
  } cases[] = {{paper::QueryBON(), 0.9},
               {paper::ViewV1BON(), 0.75},
               {paper::QueryRBON(), 0.675}};
  for (const auto& c : cases) {
    const auto got = corpus.Answer(name, c.q);
    Compare(got.value_or(std::vector<PidProb>{}), {{5, c.want}}, 1e-12,
            "paper constants " + Shape(c.q));
  }
}

void Oracle::CheckPossibleWorlds(ShardedCorpus& corpus,
                                 const std::string& name) {
  const PDocument* doc = corpus.Find(name);
  if (doc == nullptr) {
    Fail("possible-worlds document " + name + " missing");
    return;
  }
  for (const Pattern& q : QueryShapes()) {
    std::vector<PidProb> worlds;
    for (const auto& [node, prob] : NaiveEvaluateTP(*doc, q)) {
      worlds.push_back({doc->pid(node), prob});
    }
    const auto got = corpus.Answer(name, q);
    Compare(got.value_or(std::vector<PidProb>{}), worlds, kTolerance,
            "possible worlds " + Shape(q));
  }
}

void Oracle::FullPass(ShardedCorpus& corpus,
                      const std::vector<std::string>& docs,
                      const std::string& per_doc,
                      const std::vector<std::string>& tiny_docs) {
  const std::vector<Pattern>& shapes = QueryShapes();
  const std::vector<Pattern>& standing = corpus.catalog()->cached_queries();
  std::vector<std::string> all = docs;
  all.push_back(per_doc);
  all.insert(all.end(), tiny_docs.begin(), tiny_docs.end());
  for (const std::string& name : all) {
    const PDocument* doc = corpus.Find(name);
    if (doc == nullptr) {
      Fail("document " + name + " missing");
      continue;
    }
    for (const Pattern& q : shapes) {
      const auto got = corpus.Answer(name, q);
      if (!got.has_value()) {
        Fail("no answer on " + name + " " + Shape(q));
        continue;
      }
      CheckAnswer(*doc, q, *got, "final " + name);
    }
    const auto cached = corpus.AnswerAllCached(name);
    if (!cached.has_value() || cached->size() != standing.size()) {
      Fail("no standing answers on " + name);
    } else {
      for (size_t i = 0; i < standing.size(); ++i) {
        CheckAnswer(*doc, standing[i], (*cached)[i], "final cached " + name);
      }
    }
    // One hypothetical change: the first mux alternative's edge halved.
    for (NodeId n = 0; n < doc->size(); ++n) {
      if (!doc->ordinary(n) || doc->detached(n)) continue;
      const NodeId parent = doc->parent(n);
      if (parent == kNullNode || doc->kind(parent) != PKind::kMux) continue;
      const double prob = doc->edge_prob(n) / 2;
      const auto got =
          corpus.WhatIf(name, standing[0], {WhatIfChange::Edge(doc->pid(n), prob)});
      if (!got.ok()) {
        Fail("whatif failed on " + name + ": " + got.status().message());
      } else {
        CheckWhatIf(*doc, standing[0], doc->pid(n), prob, *got, "final " + name);
      }
      break;
    }
  }
  CheckFanout(corpus, corpus.AnswerAllDocuments(shapes), all);
  CheckPaperConstants(corpus, per_doc);
  for (const std::string& name : tiny_docs) CheckPossibleWorlds(corpus, name);
}

void Oracle::Merge(const Oracle& other) {
  checked_ += other.checked_;
  mismatches_ += other.mismatches_;
  direct_eval_us_.insert(direct_eval_us_.end(), other.direct_eval_us_.begin(),
                         other.direct_eval_us_.end());
}

}  // namespace e2e
}  // namespace pxv
