// Workload definitions, the seeded op stream and percentiles.

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "gen/paper.h"
#include "tp/parser.h"
#include "util/random.h"

namespace pxv {
namespace e2e {

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> specs;
  {
    // Read-mostly serving at moderate extension sizes.
    WorkloadSpec s;
    s.name = "serve_mix";
    s.clients = 2;
    s.docs = 32;
    s.persons = 30;
    // Every shape once and 2 twice. By cost the order is 3, 4, 1, 5, 2, 2,
    // 0, so the median answer falls inside the spread of shape 5 (the TP∩
    // plan), not on the edge between two shapes.
    s.answer_shapes = {0, 1, 2, 2, 3, kCompensatedShape, kTpiShape};
    s.round = {{OpKind::kAnswer, 400}, {OpKind::kCached, 120},
               {OpKind::kWhatIf, 80},  {OpKind::kApply, 80},
               {OpKind::kPut, 4},      {OpKind::kFanout, 1},
               {OpKind::kCheckpoint, 1}};
    specs.push_back(s);
  }
  {
    // Few large documents: non-selective answers and fan-outs dominate.
    WorkloadSpec s;
    s.name = "wide_answers";
    s.clients = 1;
    s.docs = 8;
    s.persons = 90;
    // Mostly the non-selective shape 0 (6 of 10 draws), so that the median
    // answer falls inside its spread: its cost follows the documents' bonus
    // counts, which vary little from seed to seed.
    s.answer_shapes = {0, 0, 0, 0, 0, 0, 1, 2, kCompensatedShape, kTpiShape};
    s.round = {{OpKind::kAnswer, 40}, {OpKind::kFanout, 2},
               {OpKind::kCached, 4},  {OpKind::kWhatIf, 3},
               {OpKind::kApply, 40},  {OpKind::kPut, 1},
               {OpKind::kCheckpoint, 1}};
    specs.push_back(s);
  }
  {
    // Write-heavy: structural churn, multi-edge batches, whole-document
    // replacement, auto-checkpoints and compactions.
    WorkloadSpec s;
    s.name = "structural_churn";
    s.clients = 1;
    s.docs = 32;
    s.persons = 30;
    // One explicit checkpoint per round leaves about 220 KiB of WAL per
    // shard in between, so the 128 KiB threshold fires about once per shard
    // and round. Checkpoints wait on fsync, so firing them more often makes
    // the round follow the disk of a shared machine more than the program.
    s.checkpoint_after_wal_bytes = 128 << 10;
    // Selective shapes only. By cost the order is 3, 4, 1, 1, 5, so the
    // median answer falls inside shape 1's spread.
    s.answer_shapes = {1, 3, 1, kCompensatedShape, kTpiShape};
    // Multi-edge batches are the middle-cost writes; there are enough of
    // them for the median Apply to fall inside their spread. Fan-outs stay
    // rare: one costs about a hundred Applies and waits on all four shards
    // at once, so it slows most when the machine is busy, and more of them
    // would make the whole round follow the machine's load.
    s.round = {{OpKind::kStructural, 128}, {OpKind::kApplyMulti, 160},
               {OpKind::kApply, 64},       {OpKind::kPut, 32},
               {OpKind::kAnswer, 192},     {OpKind::kCached, 96},
               {OpKind::kWhatIf, 48},      {OpKind::kFanout, 2},
               {OpKind::kCheckpoint, 1}};
    specs.push_back(s);
  }
  return specs;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = MakeWorkloads();
  return specs;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& s : Workloads()) {
    if (s.name == name) {
      *spec = s;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Workloads()) names.push_back(s.name);
  return names;
}

const std::vector<Pattern>& QueryShapes() {
  static const std::vector<Pattern> shapes = [] {
    std::vector<Pattern> v;
    v.push_back(Tp("IT-personnel//person/bonus"));
    v.push_back(Tp("IT-personnel//person[name/Rick]/bonus"));
    v.push_back(Tp("IT-personnel//person/bonus[laptop]"));
    v.push_back(Tp("IT-personnel//person[name/Rick]/bonus[laptop]"));
    v.push_back(Tp("IT-personnel//person[name/Rick]/bonus[pda]"));
    v.push_back(paper::Query16());
    return v;
  }();
  return shapes;
}

const std::vector<Pattern>& StandingQueries() {
  static const std::vector<Pattern> queries = [] {
    std::vector<Pattern> v;
    v.push_back(paper::QueryBON());
    v.push_back(paper::QueryRBON());
    v.push_back(paper::ViewV1BON());
    return v;
  }();
  return queries;
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, int client,
                   int own_docs)
    : spec_(spec),
      state_(seed * 0x9E3779B97F4A7C15ULL + uint64_t(client) * 0xD1B54A32D192ED03ULL + 1),
      own_docs_(own_docs) {
  Refill();
}

void OpStream::Refill() {
  round_.clear();
  for (const auto& [kind, count] : spec_.round) {
    round_.insert(round_.end(), size_t(count), kind);
  }
  Rng rng(state_);
  for (size_t i = round_.size(); i > 1; --i) {
    std::swap(round_[i - 1], round_[rng.NextBounded(i)]);
  }
  state_ = rng.NextU64();
  pos_ = 0;
}

Op OpStream::Next() {
  if (pos_ == round_.size()) Refill();
  Rng rng(state_);
  Op op;
  op.kind = round_[pos_++];
  op.doc = int(rng.NextBounded(uint64_t(own_docs_)));
  if (op.kind == OpKind::kAnswer) {
    op.shape = spec_.answer_shapes[rng.NextBounded(spec_.answer_shapes.size())];
  } else if (op.kind == OpKind::kWhatIf) {
    op.shape = int(rng.NextBounded(StandingQueries().size()));
  }
  op.salt = rng.NextU64();
  state_ = rng.NextU64();
  return op;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * double(values.size()));
  const size_t index = size_t(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace e2e
}  // namespace pxv
