// End-to-end serving benchmark: shared declarations.
//
// One run builds a durable 4-shard ShardedCorpus, registers the four
// personnel views, the four views of the paper's Example 16 and three
// standing queries, drives a seeded closed-loop op
// mix through the public serving API for a fixed number of seconds, checks
// the answers against direct evaluation, restarts the corpus and checks it
// again. An untraced run reports the end-to-end metrics; a traced run of the
// same op stream splits each call into the public functions of the layers
// underneath and reports per-layer metrics.

#ifndef PXV_E2EBENCH_BENCH_H_
#define PXV_E2EBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tp/pattern.h"

namespace pxv {
namespace e2e {

/// One entry of the op stream. Calls that follow from it (the
/// MaterializeIncremental after every Apply) are part of the same entry.
enum class OpKind {
  kAnswer,       ///< Answer(doc, shape).
  kCached,       ///< AnswerAllCached(doc).
  kWhatIf,       ///< WhatIf(doc, standing query, one edge change).
  kApply,        ///< One SetEdgeProb, then MaterializeIncremental.
  kApplyMulti,   ///< Several SetEdgeProb in one batch, then materialize.
  kStructural,   ///< Remove and insert person subtrees, then materialize.
  kPut,          ///< Replace a whole document.
  kFanout,       ///< AnswerAllDocuments over the whole corpus.
  kCheckpoint,   ///< Checkpoint every shard.
};

struct Op {
  OpKind kind = OpKind::kAnswer;
  int doc = 0;        ///< Index into the client's own documents.
  int shape = 0;      ///< Query shape (kAnswer) or standing query (kWhatIf).
  uint64_t salt = 0;  ///< Seeds the op's parameters (pids, probabilities).
  bool operator==(const Op& o) const {
    return kind == o.kind && doc == o.doc && shape == o.shape &&
           salt == o.salt;
  }
};

struct WorkloadSpec {
  std::string name;
  int clients = 1;
  int docs = 32;     ///< Generated personnel documents (all written to).
  int persons = 30;  ///< Persons per generated document.
  /// Auto-checkpoint threshold per shard; <= 0 leaves it off.
  int64_t checkpoint_after_wal_bytes = 8 << 20;
  /// Query shapes (indices into QueryShapes()) that kAnswer draws from.
  std::vector<int> answer_shapes;
  /// One round of a client: how many ops of each kind, in shuffled order.
  std::vector<std::pair<OpKind, int>> round;
};

/// The workloads by name; an unknown name returns false.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);
std::vector<std::string> WorkloadNames();

/// The query shapes. 0-3 are also registered as the four personnel views,
/// so each has an identity TP plan. kCompensatedShape matches no view and is
/// answered by a TP plan that compensates view 1. kTpiShape is the paper's
/// Example 16 query, which only the TP∩ plan over the four Example 16 views
/// answers; it is asked of the chain documents.
const std::vector<Pattern>& QueryShapes();
constexpr int kCompensatedShape = 4;
constexpr int kTpiShape = 5;
/// The three standing queries: the paper's q_BON, q_RBON and v1_BON.
const std::vector<Pattern>& StandingQueries();

/// The deterministic op stream of one client: whole rounds of the spec's
/// composition, shuffled per round. Depends only on (spec, seed, client).
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, int client, int own_docs);
  Op Next();
  /// True when the last op returned by Next() closed a round.
  bool RoundDone() const { return pos_ == round_.size(); }

 private:
  void Refill();

  const WorkloadSpec& spec_;
  uint64_t state_;
  int own_docs_;
  std::vector<OpKind> round_;
  size_t pos_ = 0;
};

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch root. A run makes its own fresh subdirectory under it for
  /// the durable corpora and removes only that.
  std::string dir;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Client-visible metrics printed by name on every run but left out of
  /// `metrics`: too unsteady to gate, so BENCHMARK.json does not list them.
  std::map<std::string, Metric> printed_only;
};

/// Runs one workload end to end; human-readable progress goes to stdout.
RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace e2e
}  // namespace pxv

#endif  // PXV_E2EBENCH_BENCH_H_
