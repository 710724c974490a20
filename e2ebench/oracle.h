// The answer oracle shared by every workload. It never compares against
// stored output: every served answer is checked against a fresh evaluation
// of the document's current contents (exact DP or possible worlds), against
// the paper's published constants, or against another serving route.

#ifndef PXV_E2EBENCH_ORACLE_H_
#define PXV_E2EBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pxml/pdocument.h"
#include "rewrite/fr_tp.h"
#include "serve/sharded_corpus.h"
#include "tp/pattern.h"

namespace pxv {
namespace e2e {

class Oracle {
 public:
  /// Tolerance on every probability compared with direct evaluation.
  static constexpr double kTolerance = 1e-9;

  /// `got` must match a fresh EvalSession::EvaluateTP(q) over `doc`, pid
  /// for pid.
  void CheckAnswer(const PDocument& doc, const Pattern& q,
                   const std::vector<PidProb>& got, const std::string& what);

  /// A WhatIf answer must match direct evaluation over a copy of `doc`
  /// with `pid`'s edge probability set to `prob`.
  void CheckWhatIf(const PDocument& doc, const Pattern& q, PersistentId pid,
                   double prob, const std::vector<PidProb>& got,
                   const std::string& what);

  /// Every shape and standing query over `docs`, `per_doc` and `tiny_docs`,
  /// plus one WhatIf per document, fan-out against per-document answers,
  /// the paper's constants on `per_doc` and possible worlds on each of
  /// `tiny_docs`. Call only while no client writes.
  void FullPass(ShardedCorpus& corpus, const std::vector<std::string>& docs,
                const std::string& per_doc,
                const std::vector<std::string>& tiny_docs);

  /// The fan-out answers of the listed documents must equal their
  /// per-document Answers bit for bit.
  void CheckFanout(ShardedCorpus& corpus,
                   const std::vector<ShardedCorpus::DocAnswers>& fanout,
                   const std::vector<std::string>& docs);

  /// P̂_PER served through the views gives the paper's values at node 5.
  void CheckPaperConstants(ShardedCorpus& corpus, const std::string& name);

  /// Answers over a small document match possible-world enumeration.
  void CheckPossibleWorlds(ShardedCorpus& corpus, const std::string& name);

  /// Records a failed check.
  void Fail(const std::string& why);

  /// Adds another client's tallies to this one.
  void Merge(const Oracle& other);

  bool ok() const { return mismatches_ == 0; }
  int64_t checked() const { return checked_; }
  int64_t mismatches() const { return mismatches_; }

  /// The time of every direct evaluation made so far.
  const std::vector<double>& direct_eval_us() const { return direct_eval_us_; }

 private:
  void Compare(const std::vector<PidProb>& got,
               const std::vector<PidProb>& want, double tolerance,
               const std::string& what);
  std::vector<PidProb> Direct(const PDocument& doc, const Pattern& q);

  int64_t checked_ = 0;
  int64_t mismatches_ = 0;
  std::vector<double> direct_eval_us_;
};

}  // namespace e2e
}  // namespace pxv

#endif  // PXV_E2EBENCH_ORACLE_H_
