// One benchmark run: set-up, the timed closed-loop phase, the oracle pass
// and the restart. In traced mode every op is split into the public calls
// of the layers under ShardedCorpus (router, store, catalog, planner,
// rewriter, WAL) and each call is timed from here.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "gen/docgen.h"
#include "gen/paper.h"
#include "oracle.h"
#include "rewrite/planner.h"
#include "serve/sharded_corpus.h"
#include "serve/wal.h"
#include "util/random.h"
#include "xml/label.h"

namespace pxv {
namespace e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kShards = 4;
/// Set-ups made per run; setup_s is their median.
constexpr int kSetups = 5;
/// Restarts made after the timed phase; recover_s is their median.
constexpr int kRecoveries = 9;
/// Edge changes in one kApplyMulti batch.
constexpr int kMultiEdges = 4;
/// Persons removed (and as many inserted) by one kStructural batch.
constexpr int kChurnPersons = 2;
/// Read-only chain documents that kTpiShape is asked of.
constexpr int kChainDocs = 8;
constexpr char kPerDoc[] = "paper-PER";
constexpr char kTinyDoc[] = "tiny";
constexpr char kTinyChainDoc[] = "tiny-chain";
/// Every kStride-th read of a client is checked by the oracle.
constexpr int kStride = 16;
/// Edge changes per writable document between the final checkpoint and
/// the restart: the WAL tail every recovery replays.
constexpr int kTailWrites = 4;
/// Pids of inserted persons start here, far above generated node ids.
constexpr PersistentId kFreshPidBase = PersistentId(1) << 32;

double Micros(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

std::string DocName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "doc-%03d", i);
  return buf;
}

PDocument GeneratedDoc(uint64_t seed, int persons) {
  Rng rng(seed);
  return PersonnelPDocument(rng, persons, /*rick_fraction=*/0.2,
                            /*laptop_fraction=*/0.3);
}

std::string ChainName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "chain-%03d", i);
  return buf;
}

/// The p-document of the paper's Example 16, a(mux(1), b(mux(2),
/// c(mux(3), mux(d)))), widened to `fanout` b children per a, c children
/// per b and d children per c, with edge probabilities drawn from `seed`.
/// Every d is an answer of a[1]/b[2]/c[3]/d.
PDocument ChainDoc(uint64_t seed, int fanout) {
  Rng rng(seed);
  auto prob = [&rng] { return 0.3 + 0.6 * rng.NextDouble(); };
  PDocument pd;
  {
    PDocument::MutationBatch batch(&pd);
    const NodeId a = pd.AddRoot(Intern("a"));
    pd.AddOrdinary(pd.AddDistributional(a, PKind::kMux), Intern("1"), prob());
    for (int i = 0; i < fanout; ++i) {
      const NodeId b = pd.AddOrdinary(a, Intern("b"));
      pd.AddOrdinary(pd.AddDistributional(b, PKind::kMux), Intern("2"), prob());
      for (int j = 0; j < fanout; ++j) {
        const NodeId c = pd.AddOrdinary(b, Intern("c"));
        pd.AddOrdinary(pd.AddDistributional(c, PKind::kMux), Intern("3"), prob());
        for (int k = 0; k < fanout; ++k) {
          pd.AddOrdinary(pd.AddDistributional(c, PKind::kMux), Intern("d"),
                         prob());
        }
      }
    }
  }
  pd.ClearDirtyPaths();
  return pd;
}

/// A person subtree shaped like PersonnelPDocument's, with explicit pids
/// drawn from *next_pid so it never collides with the target document.
PDocument FreshPerson(Rng& rng, PersistentId* next_pid) {
  const Label names[] = {Intern("Mary"), Intern("John"), Intern("Paula"),
                         Intern("Ivan"), Intern("Rick")};
  const Label projects[] = {Intern("pda"), Intern("tablet"), Intern("phone"),
                            Intern("laptop")};
  PDocument pd;
  PDocument::MutationBatch batch(&pd);
  const NodeId person = pd.AddRoot(Intern("person"), (*next_pid)++);
  const NodeId name = pd.AddOrdinary(person, Intern("name"), 1.0, (*next_pid)++);
  const NodeId mux = pd.AddDistributional(name, PKind::kMux);
  const double p = 0.4 + 0.5 * rng.NextDouble();
  pd.AddOrdinary(mux, names[rng.NextBounded(5)], p, (*next_pid)++);
  pd.AddOrdinary(mux, names[rng.NextBounded(4)], 1.0 - p, (*next_pid)++);
  const int bonuses = 1 + int(rng.NextBounded(2));
  for (int b = 0; b < bonuses; ++b) {
    const NodeId bonus =
        pd.AddOrdinary(person, Intern("bonus"), 1.0, (*next_pid)++);
    const NodeId pmux = pd.AddDistributional(bonus, PKind::kMux);
    const double lp = 0.3 + 0.6 * rng.NextDouble();
    const NodeId proj =
        pd.AddOrdinary(pmux, projects[rng.NextBounded(4)], lp, (*next_pid)++);
    pd.AddOrdinary(proj, Intern(std::to_string(10 + rng.NextBounded(90))), 1.0,
                   (*next_pid)++);
    const NodeId alt =
        pd.AddOrdinary(pmux, projects[rng.NextBounded(3)], 1.0 - lp, (*next_pid)++);
    pd.AddOrdinary(alt, Intern(std::to_string(10 + rng.NextBounded(90))), 1.0,
                   (*next_pid)++);
  }
  return pd;
}

/// A mux alternative of a document and the largest edge probability it
/// may take while its siblings keep theirs.
struct Alternative {
  PersistentId pid;
  NodeId mux;
  double room;
};

std::vector<Alternative> Alternatives(const PDocument& doc) {
  std::vector<Alternative> out;
  for (NodeId n = 0; n < doc.size(); ++n) {
    if (!doc.ordinary(n) || doc.detached(n)) continue;
    const NodeId mux = doc.parent(n);
    if (mux == kNullNode || doc.kind(mux) != PKind::kMux) continue;
    double others = 0;
    for (NodeId c : doc.children(mux)) {
      if (c != n && !doc.detached(c)) others += doc.edge_prob(c);
    }
    out.push_back({doc.pid(n), mux, std::max(0.0, 1.0 - others)});
  }
  return out;
}

std::vector<PersistentId> Persons(const PDocument& doc) {
  static const Label person = Intern("person");
  std::vector<PersistentId> out;
  for (NodeId n = 0; n < doc.size(); ++n) {
    if (doc.ordinary(n) && !doc.detached(n) && doc.label(n) == person) {
      out.push_back(doc.pid(n));
    }
  }
  return out;
}

/// A new edge probability inside the alternative's room.
double NewProb(const Alternative& alt, Rng& rng) {
  return alt.room * (0.1 + 0.9 * rng.NextDouble());
}

int64_t FileBytes(const fs::path& dir, bool wal) {
  int64_t bytes = 0;
  std::error_code ec;
  for (const auto& shard : fs::directory_iterator(dir, ec)) {
    uint64_t newest = 0;
    int64_t newest_bytes = 0;
    for (const auto& f : fs::directory_iterator(shard.path(), ec)) {
      uint64_t seq = 0;
      const std::string name = f.path().filename().string();
      if (wal && ParseWalSegmentFileName(name, &seq)) {
        bytes += int64_t(f.file_size(ec));
      } else if (!wal && ParseCheckpointFileName(name, &seq) && seq >= newest) {
        newest = seq;
        newest_bytes = int64_t(f.file_size(ec));
      }
    }
    bytes += newest_bytes;
  }
  return bytes;
}

/// WAL segment bytes under a corpus root.
int64_t WalBytes(const fs::path& dir) { return FileBytes(dir, true); }
/// Bytes of each shard's newest checkpoint under a corpus root.
int64_t CheckpointBytes(const fs::path& dir) { return FileBytes(dir, false); }

/// Views: the four personnel views, which are also query shapes 0-3, and
/// the four views of the paper's Example 16.
std::shared_ptr<ViewCatalog> MakeCatalog() {
  auto catalog = std::make_shared<ViewCatalog>();
  for (int i = 0; i < 4; ++i) {
    catalog->AddView("v" + std::to_string(i), QueryShapes()[size_t(i)].Clone());
  }
  for (int i = 1; i <= 4; ++i) {
    catalog->AddView("w" + std::to_string(i), paper::View16(i));
  }
  for (const Pattern& q : StandingQueries()) catalog->RegisterCachedQuery(q);
  return catalog;
}

ShardedCorpusOptions CorpusOptions(const WorkloadSpec& spec,
                                   const std::string& dir) {
  ShardedCorpusOptions o;
  o.shards = kShards;
  o.server.threads = 1;
  o.store.durable_dir = dir;
  o.store.fsync = FsyncPolicy::kBatch;
  o.store.checkpoint_after_wal_bytes = spec.checkpoint_after_wal_bytes;
  return o;
}

/// Latency samples and counts of one client (merged after the phase).
struct Log {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, int64_t> attempted;
  std::map<std::string, int64_t> failed;
  std::map<std::string, double> counts;
  int64_t ops = 0;
  double serving_s = 0;  ///< Wall time of the client's loop.
  double oracle_s = 0;   ///< Part of it spent in oracle checks.
  Oracle oracle;

  void Add(const std::string& key, double v) { samples[key].push_back(v); }
  /// Counts one call of `kind`; false results count as failed.
  bool Call(const char* kind, bool ok) {
    ++attempted[kind];
    ++ops;
    if (!ok) ++failed[kind];
    return ok;
  }
  void Merge(const Log& o) {
    for (const auto& [k, v] : o.samples) {
      samples[k].insert(samples[k].end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : o.attempted) attempted[k] += v;
    for (const auto& [k, v] : o.failed) failed[k] += v;
    for (const auto& [k, v] : o.counts) counts[k] += v;
    ops += o.ops;
    oracle.Merge(o.oracle);
  }
};

struct OwnDoc {
  std::string name;
  PersistentId next_pid = kFreshPidBase;
};

/// Executes ops against the corpus, plain or split into layer calls.
class Client {
 public:
  Client(const WorkloadSpec& spec, ShardedCorpus* corpus, ShardedCorpus* twin,
         const fs::path& dir, std::vector<OwnDoc> own,
         const std::vector<std::string>* chains, Log* log)
      : spec_(spec),
        corpus_(corpus),
        twin_(twin),
        dir_(dir),
        own_(std::move(own)),
        chains_(chains),
        log_(log) {}

  size_t own_docs() const { return own_.size(); }
  void set_log(Log* log) { log_ = log; }
  void Run(const Op& op);
  /// The deterministic post-phase write tail: kTailWrites edge changes per
/// own document.
  void WriteTail(Rng& rng);

 private:
  bool traced() const { return twin_ != nullptr; }
  int Route(const std::string& name);
  void Answer(const std::string& name, const Pattern& q);
  void Cached(const std::string& name);
  void WhatIf(const std::string& name, const Pattern& q, Rng& rng);
  void Write(const std::string& name, const std::vector<DocMutation>& batch);
  void Put(OwnDoc& doc, PDocument pd);
  void Fanout();
  void Checkpoint();
  bool Due() { return reads_++ % kStride == 0; }
  /// Runs an oracle check, keeping its time out of the serving time.
  template <typename F>
  void Check(F check) {
    const auto start = Clock::now();
    check(log_->oracle);
    log_->oracle_s += Micros(start) / 1e6;
  }

  const WorkloadSpec& spec_;
  ShardedCorpus* corpus_;
  ShardedCorpus* twin_;  // In-memory twin; non-null only when traced.
  fs::path dir_;
  std::vector<OwnDoc> own_;
  const std::vector<std::string>* chains_;  // Read-only, shared by clients.
  Log* log_;
  int64_t reads_ = 0;
  int64_t fanouts_ = 0;
};

int Client::Route(const std::string& name) {
  const auto start = Clock::now();
  const int shard = corpus_->router().Route(name);
  log_->Add("corpus.route_ns", Micros(start) * 1e3);
  return shard;
}

void Client::Answer(const std::string& name, const Pattern& q) {
  std::optional<std::vector<PidProb>> got;
  const auto start = Clock::now();
  if (!traced()) {
    got = corpus_->Answer(name, q);
    log_->Add("answer", Micros(start));
  } else {
    DocumentStore& store = corpus_->store(Route(name));
    auto t = Clock::now();
    const auto snapshot = store.Snapshot(name);
    log_->Add("store.snapshot_us", Micros(t));
    t = Clock::now();
    const auto plan = corpus_->catalog()->PlanFor(q);
    log_->Add("catalog.plan_lookup_us", Micros(t));
    if (snapshot != nullptr) {
      int chosen = -1;
      t = Clock::now();
      got = ExecuteQueryPlan(*plan, *snapshot, &chosen);
      const double us = Micros(t);
      log_->Add("rewrite.execute_us", us);
      if (got.has_value()) {
        log_->Add("rewrite.answers_per_query", double(got->size()));
        if (!got->empty()) {
          log_->Add("rewrite.execute_ns_per_answer", us * 1e3 / double(got->size()));
        }
        const bool tpi = plan->candidates[size_t(chosen)].kind ==
                         AnswerPlan::Kind::kTpi;
        log_->counts[tpi ? "rewrite.tpi_plans_chosen" : "rewrite.tp_plans_chosen"]++;
      }
    }
  }
  if (!log_->Call("answer", got.has_value())) return;
  if (!Due()) return;
  Check([&](Oracle& o) { o.CheckAnswer(*corpus_->Find(name), q, *got, name); });
}

void Client::Cached(const std::string& name) {
  const auto start = Clock::now();
  const auto got = traced() ? corpus_->store(Route(name)).AnswerAllCached(name)
                            : corpus_->AnswerAllCached(name);
  log_->Add("cached", Micros(start));
  const auto& standing = corpus_->catalog()->cached_queries();
  if (!log_->Call("cached", got.has_value() && got->size() == standing.size())) {
    return;
  }
  if (!Due()) return;
  Check([&](Oracle& o) {
    for (size_t i = 0; i < standing.size(); ++i) {
      o.CheckAnswer(*corpus_->Find(name), standing[i], (*got)[i], "cached " + name);
    }
  });
}

void Client::WhatIf(const std::string& name, const Pattern& q, Rng& rng) {
  const PDocument& doc = *corpus_->Find(name);
  const std::vector<Alternative> alts = Alternatives(doc);
  const Alternative& alt = alts[rng.NextBounded(alts.size())];
  const double prob = NewProb(alt, rng);
  const auto start = Clock::now();
  const std::vector<WhatIfChange> change = {WhatIfChange::Edge(alt.pid, prob)};
  const auto got = traced()
                       ? corpus_->store(Route(name)).WhatIf(name, q, change)
                       : corpus_->WhatIf(name, q, change);
  log_->Add("whatif", Micros(start));
  if (!log_->Call("whatif", got.ok())) return;
  if (!Due()) return;
  Check([&](Oracle& o) { o.CheckWhatIf(doc, q, alt.pid, prob, *got, name); });
}

void Client::Write(const std::string& name,
                   const std::vector<DocMutation>& batch) {
  bool ok = false;
  auto start = Clock::now();
  if (!traced()) {
    ok = corpus_->Apply(name, batch).ok();
    log_->Add("apply", Micros(start));
  } else {
    const int shard = Route(name);
    auto t = Clock::now();
    const std::string encoded = EncodeMutationBatch(batch);
    log_->Add("pxml.encode_batch_us", Micros(t));
    t = Clock::now();
    ok = corpus_->store(shard).Apply(name, batch).ok();
    const double durable = Micros(t);
    log_->Add("store.apply_us", durable);
    t = Clock::now();
    const bool twin_ok = twin_->store(shard).Apply(name, batch).ok();
    log_->Add("wal.durable_tax_us", durable - Micros(t));
    ok = ok && twin_ok && !encoded.empty();
  }
  if (!log_->Call("apply", ok)) return;

  start = Clock::now();
  if (!traced()) {
    ok = corpus_->MaterializeIncremental(name).ok();
    log_->Add("materialize", Micros(start));
  } else {
    DocumentStore& store = corpus_->store(Route(name));
    const SubtreeCacheStats before = store.SessionCacheStats(name);
    const auto t = Clock::now();
    ok = store.MaterializeIncremental(name).ok();
    log_->Add("store.materialize_us", Micros(t));
    const SubtreeCacheStats after = store.SessionCacheStats(name);
    log_->Add("prob.memo_hits_per_materialize", double(after.hits - before.hits));
    log_->Add("prob.memo_stores_per_materialize",
              double(after.stores - before.stores));
    log_->counts["prob.memo_invalidations"] +=
        double(after.invalidations - before.invalidations);
    ok = ok && twin_->MaterializeIncremental(name).ok();
  }
  log_->Call("materialize", ok);
}

void Client::Put(OwnDoc& doc, PDocument pd) {
  doc.next_pid = kFreshPidBase;
  bool ok = false;
  if (!traced()) {
    const auto start = Clock::now();
    ok = corpus_->Put(doc.name, std::move(pd)).ok();
    log_->Add("put", Micros(start));
  } else {
    auto t = Clock::now();
    const ViewExtensions fresh = corpus_->catalog()->rewriter().Materialize(pd);
    log_->Add("prob.view_materialize_us", Micros(t));
    ok = !fresh.empty() && twin_->Put(doc.name, pd).ok();
    DocumentStore& store = corpus_->store(Route(doc.name));
    t = Clock::now();
    ok = store.Put(doc.name, std::move(pd)).ok() && ok;
    log_->Add("put", Micros(t));
  }
  log_->Call("put", ok);
}

void Client::Fanout() {
  const std::vector<Pattern>& shapes = QueryShapes();
  std::vector<ShardedCorpus::DocAnswers> got;
  const auto start = Clock::now();
  if (!traced()) {
    got = corpus_->AnswerAllDocuments(shapes);
    log_->Add("fanout", Micros(start) / 1e3);
  } else {
    // The fan-out's three phases through public calls: pin one snapshot
    // per document, answer per shard on the shard's pool, merge in shard
    // order.
    const int nq = int(shapes.size());
    struct Pinned {
      std::string doc;
      std::shared_ptr<const SharedExtensions> snap;
    };
    std::vector<std::vector<Pinned>> pinned(static_cast<size_t>(kShards));
    size_t max_docs = 0;
    for (int s = 0; s < kShards; ++s) {
      for (std::string& name : corpus_->store(s).Names()) {
        auto snap = corpus_->store(s).Snapshot(name);
        if (snap == nullptr) continue;
        pinned[size_t(s)].push_back({std::move(name), std::move(snap)});
      }
      max_docs = std::max(max_docs, pinned[size_t(s)].size());
    }
    std::vector<std::vector<ShardedCorpus::DocAnswers>> per_shard(
        static_cast<size_t>(kShards));
    std::vector<double> shard_ms(static_cast<size_t>(kShards), 0.0);
    std::vector<std::thread> threads;
    for (int s = 0; s < kShards; ++s) {
      if (pinned[size_t(s)].empty()) continue;
      threads.emplace_back([&, s] {
        const auto t = Clock::now();
        ViewServer& server = corpus_->server(s);
        auto& out = per_shard[size_t(s)];
        const auto& docs = pinned[size_t(s)];
        out.resize(docs.size());
        for (size_t d = 0; d < docs.size(); ++d) {
          out[d].shard = s;
          out[d].doc = docs[d].doc;
          out[d].answers.resize(size_t(nq));
        }
        server.pool().ParallelFor(int(docs.size()) * nq, [&](int i) {
          const size_t d = size_t(i / nq), q = size_t(i % nq);
          out[d].answers[q] = server.AnswerWith(shapes[q], *docs[d].snap);
        });
        shard_ms[size_t(s)] = Micros(t) / 1e3;
      });
    }
    for (std::thread& t : threads) t.join();
    for (auto& r : per_shard) {
      got.insert(got.end(), std::make_move_iterator(r.begin()),
                 std::make_move_iterator(r.end()));
    }
    log_->Add("corpus.fanout_wall_ms", Micros(start) / 1e3);
    log_->Add("corpus.fanout_slowest_shard_ms",
              *std::max_element(shard_ms.begin(), shard_ms.end()));
    double sum = 0;
    for (double ms : shard_ms) sum += ms;
    log_->Add("corpus.fanout_shard_sum_ms", sum);
    log_->Add("corpus.docs_per_shard_max", double(max_docs));
  }
  bool ok = !got.empty();
  for (const auto& d : got) {
    for (const auto& a : d.answers) ok = ok && a.has_value();
  }
  if (!log_->Call("fanout", ok)) return;
  // One own document per fan-out, in turn; the final pass checks them all.
  const std::string& name = own_[size_t(fanouts_++) % own_.size()].name;
  Check([&](Oracle& o) { o.CheckFanout(*corpus_, got, {name}); });
}

void Client::Checkpoint() {
  const auto start = Clock::now();
  const bool ok = corpus_->Checkpoint().ok();
  log_->Add("checkpoint", Micros(start) / 1e3);
  if (traced()) log_->Add("checkpoint.bytes", double(CheckpointBytes(dir_)));
  log_->Call("checkpoint", ok);
}

void Client::Run(const Op& op) {
  OwnDoc& doc = own_[size_t(op.doc)];
  Rng rng(op.salt);
  switch (op.kind) {
    case OpKind::kAnswer:
      Answer(op.shape == kTpiShape ? (*chains_)[size_t(op.doc) % chains_->size()]
                                   : doc.name,
             QueryShapes()[size_t(op.shape)]);
      break;
    case OpKind::kCached:
      Cached(doc.name);
      break;
    case OpKind::kWhatIf:
      WhatIf(doc.name, StandingQueries()[size_t(op.shape)], rng);
      break;
    case OpKind::kApply: {
      const auto alts = Alternatives(*corpus_->Find(doc.name));
      const Alternative& alt = alts[rng.NextBounded(alts.size())];
      Write(doc.name, {DocMutation::SetEdgeProb(alt.pid, NewProb(alt, rng))});
      break;
    }
    case OpKind::kApplyMulti: {
      auto alts = Alternatives(*corpus_->Find(doc.name));
      std::vector<DocMutation> batch;
      std::vector<NodeId> muxes;
      while (int(batch.size()) < kMultiEdges && !alts.empty()) {
        const size_t i = rng.NextBounded(alts.size());
        const Alternative alt = alts[i];
        alts.erase(alts.begin() + long(i));
        if (std::find(muxes.begin(), muxes.end(), alt.mux) != muxes.end()) continue;
        muxes.push_back(alt.mux);
        batch.push_back(DocMutation::SetEdgeProb(alt.pid, NewProb(alt, rng)));
      }
      Write(doc.name, batch);
      break;
    }
    case OpKind::kStructural: {
      const PDocument& pd = *corpus_->Find(doc.name);
      std::vector<PersistentId> persons = Persons(pd);
      std::vector<DocMutation> batch;
      for (int i = 0; i < kChurnPersons && !persons.empty(); ++i) {
        const size_t k = rng.NextBounded(persons.size());
        batch.push_back(DocMutation::RemoveSubtree(persons[k]));
        persons.erase(persons.begin() + long(k));
      }
      for (int i = 0; i < kChurnPersons; ++i) {
        batch.push_back(DocMutation::InsertSubtree(pd.pid(pd.root()),
                                                   FreshPerson(rng, &doc.next_pid)));
      }
      Write(doc.name, batch);
      break;
    }
    case OpKind::kPut:
      Put(doc, GeneratedDoc(op.salt, spec_.persons));
      break;
    case OpKind::kFanout:
      Fanout();
      break;
    case OpKind::kCheckpoint:
      Checkpoint();
      break;
  }
}

void Client::WriteTail(Rng& rng) {
  for (int i = 0; i < kTailWrites; ++i) {
    for (OwnDoc& doc : own_) {
      const auto alts = Alternatives(*corpus_->Find(doc.name));
      const Alternative& alt = alts[rng.NextBounded(alts.size())];
      const DocMutation m = DocMutation::SetEdgeProb(alt.pid, NewProb(alt, rng));
      if (!corpus_->Apply(doc.name, {m}).ok() ||
          !corpus_->MaterializeIncremental(doc.name).ok()) {
        log_->oracle.Fail("post-phase write failed on " + doc.name);
      }
    }
  }
}

/// Everything a restart must reproduce bit for bit, per document: its
/// name, its answer to every shape and its standing answers.
using Image = std::map<std::string, std::vector<std::vector<PidProb>>>;

Image Capture(ShardedCorpus& corpus) {
  Image image;
  for (const std::string& name : corpus.Names()) {
    auto& entry = image[name];
    for (const Pattern& q : QueryShapes()) {
      entry.push_back(corpus.Answer(name, q).value_or(std::vector<PidProb>{}));
    }
    for (auto& answers : corpus.AnswerAllCached(name).value_or(
             std::vector<std::vector<PidProb>>{})) {
      entry.push_back(std::move(answers));
    }
  }
  return image;
}

/// Compares the answers after a restart with those before it, bit for bit.
/// A lost or renamed document, a changed pid or order, or a probability
/// off by more than the oracle's tolerance fails the oracle. Returns how many
/// probabilities differ in any bit: the recovery rebuilds every view
/// extension, which the live corpus patched incrementally, and the two do
/// not always round alike, a known fault that the returned count reports
/// rather than hides.
int64_t CompareImages(const Image& before, const Image& after, Oracle* oracle) {
  int64_t bit_diffs = 0;
  if (before.size() != after.size()) oracle->Fail("restart changed the document set");
  for (const auto& [name, entry] : before) {
    const auto it = after.find(name);
    if (it == after.end() || it->second.size() != entry.size()) {
      oracle->Fail("restart lost or changed document " + name);
      continue;
    }
    for (size_t i = 0; i < entry.size(); ++i) {
      const std::vector<PidProb>& a = entry[i];
      const std::vector<PidProb>& b = it->second[i];
      bool same = a.size() == b.size();
      for (size_t k = 0; same && k < a.size(); ++k) {
        same = a[k].pid == b[k].pid &&
               std::fabs(a[k].prob - b[k].prob) <= Oracle::kTolerance;
        bit_diffs += a[k].prob != b[k].prob;
      }
      if (!same) {
        oracle->Fail("restart changed answer " + std::to_string(i) + " of " +
                     name);
      }
    }
  }
  return bit_diffs;
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunResult result;
  // A fresh directory of the run's own, so that nothing else under
  // options.dir is ever removed.
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  const fs::path root =
      fs::path(options.dir) / ("e2e-run-" + std::to_string(getpid()));
  if (!fs::create_directory(root, ec)) {
    std::fprintf(stderr, "cannot make a fresh run directory %s\n",
                 root.string().c_str());
    result.correct = false;
    return result;
  }

  // Inputs: one personnel document per writable name, the read-only chain
  // documents, the paper's P̂_PER and two documents small enough for
  // possible-world enumeration.
  std::vector<std::pair<std::string, PDocument>> inputs;
  std::vector<std::string> chains;
  {
    Rng rng(options.seed);
    for (int i = 0; i < spec.docs; ++i) {
      inputs.push_back({DocName(i), GeneratedDoc(rng.NextU64(), spec.persons)});
    }
    for (int i = 0; i < kChainDocs; ++i) {
      chains.push_back(ChainName(i));
      inputs.push_back({chains.back(), ChainDoc(rng.NextU64(), 4)});
    }
    inputs.push_back({kPerDoc, paper::PDocPER()});
    inputs.push_back({kTinyDoc, GeneratedDoc(rng.NextU64(), 2)});
    inputs.push_back({kTinyChainDoc, ChainDoc(rng.NextU64(), 1)});
  }
  std::printf("workload %s seed %llu seconds %.1f trace %d\n", spec.name.c_str(),
              (unsigned long long)options.seed, options.seconds, int(options.trace));
  const auto run_start = Clock::now();
  auto stage = [&run_start](const char* name) {
    std::printf("stage %-10s done at %7.2f s\n", name, Micros(run_start) / 1e6);
  };

  // Set-up, several times: open an empty durable corpus, Put every
  // document, compile every query shape cold.
  std::shared_ptr<ViewCatalog> catalog;
  std::unique_ptr<ShardedCorpus> corpus;
  fs::path dir;
  std::vector<double> setup_s, compile_ms;
  for (int i = 0; i < kSetups; ++i) {
    if (corpus != nullptr) {
      corpus.reset();
      fs::remove_all(dir, ec);
    }
    dir = root / ("corpus-" + std::to_string(i));
    catalog = MakeCatalog();
    const auto start = Clock::now();
    auto opened = ShardedCorpus::Open(CorpusOptions(spec, dir.string()), catalog);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n", opened.status().message().c_str());
      fs::remove_all(root, ec);
      result.correct = false;
      return result;
    }
    corpus = std::move(opened).value();
    for (const auto& [name, doc] : inputs) {
      if (!corpus->Put(name, doc).ok()) result.correct = false;
    }
    double compile = 0;
    for (const Pattern& q : QueryShapes()) {
      const auto t = Clock::now();
      if (!catalog->PlanFor(q)->answerable()) result.correct = false;
      compile += Micros(t) / 1e3;
    }
    setup_s.push_back(Micros(start) / 1e6);
    compile_ms.push_back(compile);
  }

  stage("setup");
  // The in-memory twin of the traced run: same catalog, same documents,
  // same writes, no WAL.
  std::unique_ptr<ShardedCorpus> twin;
  if (options.trace) {
    ShardedCorpusOptions o = CorpusOptions(spec, "");
    twin = std::make_unique<ShardedCorpus>(o, catalog);
    for (const auto& [name, doc] : inputs) {
      if (!twin->Put(name, doc).ok()) result.correct = false;
    }
  }

  // Clients own disjoint document sets, so each client's oracle reads
  // documents no other thread writes.
  std::vector<std::string> writable;
  for (int i = 0; i < spec.docs; ++i) writable.push_back(DocName(i));
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Log> logs(size_t(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    std::vector<OwnDoc> own;
    for (int i = c; i < spec.docs; i += spec.clients) own.push_back({DocName(i)});
    clients.push_back(std::make_unique<Client>(spec, corpus.get(), twin.get(), dir,
                                               std::move(own), &chains,
                                               &logs[size_t(c)]));
  }

  // Each client first plays one untimed round, so that lazily built state
  // (standing circuits, subtree memos) exists before timing starts; the
  // timed phase continues the same op stream.
  std::vector<OpStream> streams;
  std::vector<Log> warmup(size_t(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    streams.emplace_back(spec, options.seed, c, int(clients[size_t(c)]->own_docs()));
  }
  auto run_clients = [&](auto body) {
    std::vector<std::thread> threads;
    for (int c = 0; c < spec.clients; ++c) threads.emplace_back(body, c);
    for (std::thread& t : threads) t.join();
  };
  run_clients([&](int c) {
    Client& client = *clients[size_t(c)];
    client.set_log(&warmup[size_t(c)]);
    do {
      client.Run(streams[size_t(c)].Next());
    } while (!streams[size_t(c)].RoundDone());
    client.set_log(&logs[size_t(c)]);
  });

  stage("warm-up");
  const ShardedCorpusStats before = corpus->stats();
  const auto phase_start = Clock::now();
  const auto deadline =
      phase_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.seconds));
  run_clients([&](int c) {
    Client& client = *clients[size_t(c)];
    OpStream& stream = streams[size_t(c)];
    Log& l = logs[size_t(c)];
    const auto start = Clock::now();
    auto round_start = start;
    int64_t round_ops = 0;
    double round_oracle_s = 0;
    for (;;) {
      client.Run(stream.Next());
      if (!stream.RoundDone()) continue;
      const double busy_s =
          Micros(round_start) / 1e6 - (l.oracle_s - round_oracle_s);
      l.Add("round_ops_s", double(l.ops - round_ops) / busy_s);
      if (Clock::now() >= deadline) break;
      round_start = Clock::now();
      round_ops = l.ops;
      round_oracle_s = l.oracle_s;
    }
    l.serving_s = Micros(start) / 1e6;
  });
  const double phase_s = Micros(phase_start) / 1e6;
  const ShardedCorpusStats after = corpus->stats();

  // Each closed-loop client's median rate over its rounds, which is steadier
  // on a shared machine than the rate over the whole phase; the clients'
  // rates add up.
  Log log;
  for (const Log& l : warmup) log.oracle.Merge(l.oracle);
  double throughput = 0;
  for (const Log& l : logs) {
    log.Merge(l);
    throughput += Median(l.samples.at("round_ops_s"));
  }

  // The full oracle pass, then a checkpoint and a fixed write tail so that
  // every restart replays the same amount of log.
  stage("timed");
  Oracle& oracle = log.oracle;
  std::vector<std::string> all_docs = writable;
  all_docs.insert(all_docs.end(), chains.begin(), chains.end());
  oracle.FullPass(*corpus, all_docs, kPerDoc, {kTinyDoc, kTinyChainDoc});
  if (!corpus->Checkpoint().ok()) oracle.Fail("final checkpoint failed");
  Rng tail_rng(options.seed ^ 0x7A11);
  for (auto& client : clients) client->WriteTail(tail_rng);

  int64_t live = 0, detached = 0;
  for (const std::string& name : corpus->Names()) {
    const PDocument* doc = corpus->Find(name);
    live += doc->live_size();
    detached += doc->detached_count();
  }
  stage("oracle");
  const Image image = Capture(*corpus);
  const int64_t wal_tail = WalBytes(dir);
  const ShardedCorpusOptions reopen = CorpusOptions(spec, dir.string());
  corpus.reset();
  twin.reset();

  std::vector<double> recover_s;
  int64_t restart_bit_diffs = 0;
  for (int i = 0; i < kRecoveries; ++i) {
    const auto start = Clock::now();
    auto opened = ShardedCorpus::Open(reopen, catalog);
    recover_s.push_back(Micros(start) / 1e6);
    if (!opened.ok()) {
      oracle.Fail("recovery failed: " + opened.status().message());
      break;
    }
    if (i + 1 == kRecoveries) {
      restart_bit_diffs = CompareImages(image, Capture(**opened), &oracle);
    }
  }
  fs::remove_all(root, ec);
  stage("restart");

  // Per-kind tallies.
  for (const auto& [kind, n] : log.attempted) {
    const int64_t failed = log.failed.count(kind) ? log.failed.at(kind) : 0;
    std::printf("op %-11s attempted %8lld failed %lld\n", kind.c_str(),
                (long long)n, (long long)failed);
    result.attempted += n;
    result.failed += failed;
  }
  std::printf("answers checked %lld mismatches %lld\n", (long long)oracle.checked(),
              (long long)oracle.mismatches());
  std::printf("restart: probabilities that differ in any bit: %lld\n",
              (long long)restart_bit_diffs);
  result.correct = result.correct && oracle.ok();

  auto& m = result.metrics;
  auto put = [&m](const std::string& name, double value, const char* unit) {
    m[name] = {value, unit};
  };
  auto samples = [&log](const std::string& key) -> const std::vector<double>& {
    return log.samples[key];
  };
  const int64_t writes = (after.store.batches - before.store.batches) +
                         (log.attempted["put"] - log.failed["put"]);
  const double wal_bytes = double(after.store.wal_bytes - before.store.wal_bytes);
  if (!options.trace) {
    put("setup_s", Median(setup_s), "s");
    put("answer_p50_us", Percentile(samples("answer"), 50), "us");
    put("apply_p50_us", Percentile(samples("apply"), 50), "us");
    put("materialize_p50_us", Percentile(samples("materialize"), 50), "us");
    put("put_p50_us", Percentile(samples("put"), 50), "us");
    put("cached_p50_us", Percentile(samples("cached"), 50), "us");
    put("whatif_p50_us", Percentile(samples("whatif"), 50), "us");
    put("wal_bytes_per_write", writes > 0 ? wal_bytes / double(writes) : 0, "B");
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    put("peak_rss_mb", double(usage.ru_maxrss) / 1024.0, "MB");
    result.printed_only["throughput_ops_s"] = {throughput, "ops/s"};
    result.printed_only["fanout_p50_ms"] = {Percentile(samples("fanout"), 50), "ms"};
    result.printed_only["answer_p99_us"] = {Percentile(samples("answer"), 99), "us"};
    result.printed_only["apply_p99_us"] = {Percentile(samples("apply"), 99), "us"};
  } else {
    // Medians of the samples the traced calls recorded.
    const std::pair<const char*, const char*> medians[] = {
        {"corpus.route_ns", "ns"},
        {"corpus.fanout_wall_ms", "ms"},
        {"corpus.fanout_slowest_shard_ms", "ms"},
        {"corpus.fanout_shard_sum_ms", "ms"},
        {"corpus.docs_per_shard_max", "count"},
        {"catalog.plan_lookup_us", "us"},
        {"store.snapshot_us", "us"},
        {"store.apply_us", "us"},
        {"store.materialize_us", "us"},
        {"rewrite.execute_us", "us"},
        {"rewrite.execute_ns_per_answer", "ns"},
        {"rewrite.answers_per_query", "count"},
        {"prob.view_materialize_us", "us"},
        {"prob.memo_hits_per_materialize", "count"},
        {"prob.memo_stores_per_materialize", "count"},
        {"pxml.encode_batch_us", "us"},
        {"wal.durable_tax_us", "us"},
        {"checkpoint.bytes", "B"},
    };
    for (const auto& [key, unit] : medians) put(key, Median(samples(key)), unit);
    put("checkpoint.p50_ms", Median(samples("checkpoint")), "ms");
    put("prob.direct_eval_us", Median(oracle.direct_eval_us()), "us");
    put("catalog.plan_compile_ms", Median(compile_ms), "ms");
    put("recover.open_ms", Median(recover_s) * 1e3, "ms");
    for (const char* key : {"rewrite.tp_plans_chosen", "rewrite.tpi_plans_chosen",
                            "prob.memo_invalidations"}) {
      put(key, log.counts[key], "count");
    }
    const PlanCache& plans = catalog->plan_cache();
    put("catalog.plan_misses", double(plans.misses()), "count");
    put("catalog.plan_hits", double(plans.hits()), "count");
    put("catalog.plan_shapes", double(plans.size()), "count");

    // Store counters over the timed phase.
    const DocumentStoreStats& a = after.store;
    const DocumentStoreStats& b = before.store;
    auto per = [](int64_t n, int64_t d) { return d > 0 ? double(n) / double(d) : 0; };
    const int64_t mats = a.materializations - b.materializations;
    const int64_t appends = a.wal_appends - b.wal_appends;
    put("prob.standing_refreshes_per_apply",
        per(a.cached_refreshes - b.cached_refreshes, a.batches - b.batches), "count/op");
    put("pxml.views_patched", per(a.views_patched - b.views_patched, mats), "count/op");
    put("pxml.views_rebuilt", per(a.views_rebuilt - b.views_rebuilt, mats), "count/op");
    put("pxml.views_clean", per(a.views_clean - b.views_clean, mats), "count/op");
    put("pxml.compactions", double(a.compactions - b.compactions), "count");
    put("pxml.nodes_reclaimed", double(a.nodes_reclaimed - b.nodes_reclaimed), "count");
    put("pxml.doc_nodes_live", double(live), "count");
    put("pxml.doc_nodes_detached", double(detached), "count");
    put("wal.appends", double(appends), "count");
    put("wal.bytes", wal_bytes, "B");
    put("wal.bytes_per_append", per(int64_t(wal_bytes), appends), "B");
    put("checkpoint.count", double(a.checkpoints - b.checkpoints), "count");
    put("recover.wal_tail_bytes", double(wal_tail), "B");
    put("recover.answer_bit_diffs", double(restart_bit_diffs), "count");
  }
  result.printed_only["checkpoint_p50_ms"] = {Median(samples("checkpoint")), "ms"};
  result.printed_only["recover_s"] = {Median(recover_s), "s"};
  double busy_s = 0;
  for (const Log& l : logs) busy_s += l.serving_s - l.oracle_s;
  std::printf("phase %.3f s, %lld ops, %.2f us of client time per op\n", phase_s,
              (long long)log.ops, busy_s * 1e6 / double(log.ops));
  for (const auto& [key, v] : log.samples) {
    std::printf("samples %-34s n %7zu  p10 %10.2f  p50 %10.2f  p90 %10.2f  p99 %10.2f\n",
                key.c_str(), v.size(), Percentile(v, 10), Percentile(v, 50),
                Percentile(v, 90), Percentile(v, 99));
  }
  std::printf("setups (s):");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nplan compiles (ms):");
  for (double ms : compile_ms) std::printf(" %.1f", ms);
  std::printf("\nrecoveries (s):");
  for (double s : recover_s) std::printf(" %.4f", s);
  std::printf("\n");
  for (const auto* metrics : {&m, &result.printed_only}) {
    for (const auto& [name, metric] : *metrics) {
      std::printf("metric %-34s %14.4f %s%s\n", name.c_str(), metric.value,
                  metric.unit.c_str(), metrics == &m ? "" : "  (not gated)");
    }
  }
  return result;
}

}  // namespace e2e
}  // namespace pxv
