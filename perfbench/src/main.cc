// perfbench: one benchmark for the query path, publish, the directory
// cache and the TCP transport.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workloads DIR]
//   perfbench --selftest
//
// A run loads workloads/NAME.json (a scenario spec plus a "bench"
// section), generates every input from --seed before any timing, builds
// and publishes the network, then drives a closed loop: one client
// thread issues serial Engine::RunQuery calls in whole rounds of the
// query schedule until S seconds of calls are timed. Every output is
// checked against the independent oracle (oracle.h, checks.h). The last
// stdout line is one JSON object: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1 (README.md lists them).
//
// The program is driven only through its public calls; layers are timed
// from outside by wrapping the calls into them, plus the CpuProfiler
// wall leg in the traced run.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "minerva/api.h"
#include "minerva/scenario.h"
#include "net/tcp_transport.h"
#include "oracle.h"
#include "util/json_value.h"
#include "util/mem_stats.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "workload/synthetic_corpus.h"

namespace perfbench {

int RunSelfTest();  // selftest.cc

namespace {

using Clock = std::chrono::steady_clock;
using iqn::Result;
using iqn::Status;

// Set-up is timed from here: static initialization runs before main.
const Clock::time_point kProcessStart = Clock::now();

int64_t ElapsedNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

double Mb(int64_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

double PerItem(double total, size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

// ------------------------------------------------------------ workload

struct Workload {
  std::string name;
  minerva::ScenarioSpec spec;
  /// > 0: an in-process cluster of min(tcp_ranks, nproc) TcpTransport
  /// ranks on ephemeral loopback ports; 0: the simulated transport.
  size_t tcp_ranks = 0;
};

/// Upper bound on stream rounds in one run (the traced run's two phases
/// together); churn deltas are generated for this many rounds before
/// timing starts.
constexpr size_t kMaxRounds = 100;
/// A run continues past --seconds until it has this many queries, so
/// the p99 has at least ten samples beyond it.
constexpr size_t kMinQueries = 1000;

Result<size_t> UintMember(const iqn::JsonValue& obj, const char* key,
                          size_t fallback) {
  const iqn::JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number() || !v->IsExactInt() || v->number_value() < 0) {
    return Status::InvalidArgument(std::string("bench.") + key +
                                   " must be a nonnegative integer");
  }
  return static_cast<size_t>(v->number_value());
}

Result<Workload> LoadWorkload(const std::string& dir, const std::string& name,
                              uint64_t seed) {
  std::ifstream in(dir + "/" + name + ".json");
  if (!in) return Status::NotFound("no workload file " + dir + "/" + name + ".json");
  std::stringstream text;
  text << in.rdbuf();
  IQN_ASSIGN_OR_RETURN(iqn::JsonValue root, iqn::ParseJson(text.str()));
  const iqn::JsonValue* spec = root.is_object() ? root.Find("spec") : nullptr;
  if (spec == nullptr || !spec->is_object()) {
    return Status::InvalidArgument(name + ": missing \"spec\" object");
  }
  for (const iqn::JsonValue::Member& m : root.members()) {
    if (m.first != "name" && m.first != "why" && m.first != "spec" &&
        m.first != "bench") {
      return Status::InvalidArgument(name + ": unknown key \"" + m.first +
                                     "\" (name|why|spec|bench)");
    }
  }
  Workload w;
  w.name = name;
  IQN_ASSIGN_OR_RETURN(w.spec, minerva::ParseScenarioSpec(iqn::EmitJson(*spec)));
  // Spec seed 0 is the generators' "use the other seed" sentinel: churn
  // deltas would then draw from a foreign vocabulary, so shift by one.
  w.spec.seed = seed + 1;
  if (const iqn::JsonValue* bench = root.Find("bench"); bench != nullptr) {
    if (!bench->is_object()) {
      return Status::InvalidArgument(name + ": \"bench\" must be an object");
    }
    IQN_ASSIGN_OR_RETURN(w.tcp_ranks, UintMember(*bench, "tcp_ranks", 0));
  }
  if (w.spec.queries.batch_size != 1) {
    return Status::InvalidArgument(name + ": the client issues serial queries "
                                          "(queries.batch_size must be 1)");
  }
  return w;
}

size_t CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return 1;
}

// ------------------------------------------------------------ run state

/// One routed query kept for the correctness checks.
struct Capture {
  size_t epoch = 0;  // churn events applied before the query
  size_t qidx = 0;
  size_t initiator = 0;
  iqn::QueryOutcome outcome;
  std::vector<ScoredDoc> reference;
};

/// Round-1 outcomes kept as flat arrays reserved before the stream; the
/// program's own result vectors are let go right after each call. A
/// top-k list the program returns keeps the capacity of every match it
/// was cut from: 1000 kept reference lists of wide_routing held 80 MB
/// and raised its peak RSS from 142 MB to 218 MB. Unpacked after peak
/// RSS is read.
class CaptureStore {
 public:
  /// Room for `queries` outcomes of top-k lists of `k` and at most
  /// `max_peers` attempted peers, so that Add does not allocate.
  void Reserve(size_t queries, size_t k, size_t max_peers) {
    const size_t lists = 4 + max_peers;
    entries_.reserve(queries);
    ends_.reserve(queries * lists);
    docs_.reserve(queries * k * (lists + max_peers + 1));
    ids_.reserve(queries * 2 * max_peers);
  }

  void Add(size_t epoch, size_t qidx, size_t initiator,
           const iqn::QueryOutcome& o,
           const std::vector<ScoredDoc>& reference) {
    Entry e;
    e.epoch = epoch;
    e.qidx = qidx;
    e.initiator = initiator;
    e.selected = o.decision.peers.size();
    e.attempted = o.execution.attempted.size();
    e.failed_peers = o.execution.failed_peers;
    e.recall = o.recall;
    e.routing_bytes = o.routing_bytes;
    e.execution_bytes = o.execution_bytes;
    e.routing_messages = o.routing_messages;
    e.execution_messages = o.execution_messages;
    e.routing_latency_ms = o.routing_latency_ms;
    e.execution_latency_ms = o.execution_latency_ms;
    entries_.push_back(e);
    for (const iqn::SelectedPeer& p : o.decision.peers) ids_.push_back(p.peer_id);
    for (const iqn::SelectedPeer& p : o.execution.attempted) {
      ids_.push_back(p.peer_id);
    }
    AddList(o.execution.local_results);
    AddList(reference);
    AddList(o.execution.merged);
    AddList(o.execution.all_distinct);
    for (const std::vector<ScoredDoc>& list : o.execution.per_peer_results) {
      AddList(list);
    }
  }

  std::vector<Capture> Unpack() const {
    std::vector<Capture> out;
    size_t list = 0, id = 0;
    auto next_list = [&] {
      const size_t begin = list == 0 ? 0 : ends_[list - 1];
      const size_t end = ends_[list++];
      return std::vector<ScoredDoc>(docs_.begin() + static_cast<ptrdiff_t>(begin),
                                    docs_.begin() + static_cast<ptrdiff_t>(end));
    };
    auto next_peer = [&] {
      iqn::SelectedPeer p;
      p.peer_id = ids_[id++];
      return p;
    };
    for (const Entry& e : entries_) {
      Capture c;
      c.epoch = e.epoch;
      c.qidx = e.qidx;
      c.initiator = e.initiator;
      iqn::QueryOutcome& o = c.outcome;
      for (size_t i = 0; i < e.selected; ++i) o.decision.peers.push_back(next_peer());
      for (size_t i = 0; i < e.attempted; ++i) {
        o.execution.attempted.push_back(next_peer());
      }
      o.execution.failed_peers = e.failed_peers;
      o.recall = e.recall;
      o.routing_bytes = e.routing_bytes;
      o.execution_bytes = e.execution_bytes;
      o.routing_messages = e.routing_messages;
      o.execution_messages = e.execution_messages;
      o.routing_latency_ms = e.routing_latency_ms;
      o.execution_latency_ms = e.execution_latency_ms;
      o.execution.local_results = next_list();
      c.reference = next_list();
      o.execution.merged = next_list();
      o.execution.all_distinct = next_list();
      for (size_t i = 0; i < e.attempted; ++i) {
        o.execution.per_peer_results.push_back(next_list());
      }
      out.push_back(std::move(c));
    }
    return out;
  }

 private:
  struct Entry {
    size_t epoch = 0, qidx = 0, initiator = 0;
    size_t selected = 0, attempted = 0, failed_peers = 0;
    double recall = 0, routing_latency_ms = 0, execution_latency_ms = 0;
    uint64_t routing_bytes = 0, execution_bytes = 0;
    uint64_t routing_messages = 0, execution_messages = 0;
  };

  void AddList(const std::vector<ScoredDoc>& list) {
    docs_.insert(docs_.end(), list.begin(), list.end());
    ends_.push_back(docs_.size());
  }

  std::vector<Entry> entries_;
  std::vector<ScoredDoc> docs_;
  std::vector<size_t> ends_;   // end of each list in docs_
  std::vector<uint64_t> ids_;  // per entry: selected, then attempted
};

/// One fetched PeerList kept for the directory check. `term` points
/// into Bench::vocabulary or Bench::delta_terms.
struct DirCapture {
  size_t epoch = 0;
  const std::string* term = nullptr;
  PeerListDigest digest;
};

/// One timed pass of whole stream rounds.
struct Phase {
  std::vector<int64_t> latency_ns;
  int64_t timed_ns = 0;  // RunQuery calls plus churn events
  int64_t add_documents_ns = 0;
  int64_t rebuild_ns = 0;
  size_t events = 0;
  size_t rounds = 0;
  size_t failed = 0;
  /// Per round: queries per timed second, and the nearest-rank median
  /// and p99 of its query latencies in ns.
  std::vector<double> round_qps;
  std::vector<double> round_p50_ns;
  std::vector<double> round_p99_ns;
};

struct Bench {
  Workload w;
  bool trace = false;
  double seconds = 0.0;

  // Inputs, all generated before timing.
  minerva::ScenarioWorkload inputs;
  std::vector<iqn::Corpus> deltas;
  std::vector<std::vector<std::string>> delta_terms;
  std::vector<std::string> vocabulary;

  /// One engine per rank (one on the simulated transport). Peer i is
  /// owned by rank i % ranks.
  std::vector<std::unique_ptr<minerva::Engine>> engines;
  size_t ranks = 1;
  size_t num_peers = 0;

  // Stream state shared by the phases.
  size_t global_query = 0;
  size_t events = 0;
  CaptureStore store;                      // round 1 of the first phase
  std::vector<Capture> captures;           // the store, unpacked
  std::vector<LegRecord> round1;           // same positions
  std::vector<int64_t> round1_ns;          // same positions
  /// (query, initiator) -> result fingerprint since the last churn event.
  std::map<std::pair<size_t, size_t>, uint64_t> seen;
  std::vector<DirCapture> dir;
  size_t posts_republished = 0;
  uint64_t rpc_retries = 0;
  uint64_t rpc_failures = 0;
  std::string error;  // first correctness violation

  // Measurements.
  double generate_ms = 0.0;
  double index_build_ms = 0.0;
  double setup_s = 0.0;
  double publish_s = 0.0;
  std::vector<double> publish_peer_ms;
  uint64_t publish_bytes = 0;
  int64_t rss_after_setup = 0;
  int64_t rss_after_publish = 0;
  int64_t peak_rss = 0;
  std::map<std::string, int64_t> mem;

  minerva::Engine& owner(size_t peer) {
    return *engines[peer % engines.size()];
  }
  void Fail(const std::string& what) {
    if (error.empty()) error = what;
  }
};

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// ------------------------------------------------------------ set-up

Status GenerateInputs(Bench& b) {
  const Clock::time_point t0 = Clock::now();
  const minerva::ScenarioSpec& spec = b.w.spec;
  IQN_ASSIGN_OR_RETURN(b.inputs, minerva::BuildScenarioWorkload(spec));
  b.num_peers = b.inputs.collections.size();
  IQN_ASSIGN_OR_RETURN(iqn::SyntheticCorpusGenerator gen,
                       iqn::SyntheticCorpusGenerator::Create(
                           b.inputs.corpus_opts));
  b.vocabulary = gen.vocabulary();

  // Churn deltas for every event up to kMaxRounds, drawn from one
  // generator over the corpus vocabulary and cut into per-event chunks.
  const size_t every = spec.churn.every;
  if (every > 0 && b.inputs.churn_docs > 0) {
    const size_t per_round = b.inputs.schedule.size() / every + 1;
    const size_t num_events = per_round * kMaxRounds;
    iqn::SyntheticCorpusOptions opts = b.inputs.corpus_opts;
    opts.num_documents = num_events * b.inputs.churn_docs;
    opts.first_doc_id = 10 * static_cast<iqn::DocId>(spec.corpus.documents);
    opts.vocabulary_seed = b.inputs.corpus_opts.seed;
    opts.seed = spec.seed + 1000;
    IQN_ASSIGN_OR_RETURN(iqn::SyntheticCorpusGenerator delta_gen,
                         iqn::SyntheticCorpusGenerator::Create(opts));
    const iqn::Corpus all = delta_gen.Generate();
    b.deltas.resize(num_events);
    b.delta_terms.resize(num_events);
    for (size_t i = 0; i < all.size(); ++i) {
      const size_t e = i / b.inputs.churn_docs;
      IQN_RETURN_IF_ERROR(
          b.deltas[e].AddDocumentTerms(all.doc(i).id, all.doc(i).terms));
    }
    for (size_t e = 0; e < num_events; ++e) {
      std::set<std::string> terms;
      for (const iqn::DocTerms& doc : b.deltas[e].docs()) {
        terms.insert(doc.terms.begin(), doc.terms.end());
      }
      b.delta_terms[e].assign(terms.begin(), terms.end());
    }
  }
  b.generate_ms = static_cast<double>(ElapsedNs(t0)) / 1e6;
  return Status::OK();
}

Status CreateEngines(Bench& b) {
  minerva::ScenarioSpec spec = b.w.spec;
  size_t ranks = 1;
  if (b.w.tcp_ranks > 0) {
    ranks = std::max<size_t>(2, std::min(b.w.tcp_ranks, CpuCount()));
    spec.transport.kind = iqn::TransportKind::kTcp;
    spec.transport.endpoints.assign(ranks, "127.0.0.1:0");
  }
  b.ranks = ranks;
  const Clock::time_point t0 = Clock::now();
  for (size_t r = 0; r < ranks; ++r) {
    std::vector<iqn::Corpus> collections =
        r + 1 == ranks ? std::move(b.inputs.collections)
                       : b.inputs.collections;
    IQN_ASSIGN_OR_RETURN(
        std::unique_ptr<minerva::Engine> engine,
        minerva::Engine::Create(
            minerva::EngineOptionsFromSpec(spec, static_cast<uint32_t>(r)),
            std::move(collections)));
    b.engines.push_back(std::move(engine));
  }
  b.index_build_ms = static_cast<double>(ElapsedNs(t0)) / 1e6;
  if (ranks > 1) {
    std::vector<iqn::TcpTransport*> transports;
    for (auto& e : b.engines) {
      transports.push_back(static_cast<iqn::TcpTransport*>(&e->network()));
    }
    for (size_t a = 0; a < ranks; ++a) {
      for (size_t c = 0; c < ranks; ++c) {
        if (a == c) continue;
        IQN_RETURN_IF_ERROR(transports[a]->SetPeerEndpoint(
            static_cast<uint32_t>(c), transports[c]->listen_endpoint()));
      }
    }
  }
  for (size_t i = 0; i < b.num_peers; ++i) {
    minerva::Engine& e = b.owner(i);
    if (!e.network().IsLocal(e.peer(i).address()) || e.peer(i).peer_id() != i) {
      return Status::Internal("peer " + std::to_string(i) +
                              " is not owned by rank i % ranks");
    }
  }
  return Status::OK();
}

/// Publishes every peer from its owning rank. The traced run publishes
/// peer by peer through Engine::PublishPeer to time each call.
Status Publish(Bench& b) {
  const Clock::time_point t0 = Clock::now();
  if (b.trace) {
    for (size_t i = 0; i < b.num_peers; ++i) {
      const Clock::time_point p0 = Clock::now();
      IQN_RETURN_IF_ERROR(b.owner(i).PublishPeer(i));
      b.publish_peer_ms.push_back(static_cast<double>(ElapsedNs(p0)) / 1e6);
    }
  } else {
    for (auto& e : b.engines) IQN_RETURN_IF_ERROR(e->Publish());
  }
  b.publish_s = static_cast<double>(ElapsedNs(t0)) / 1e9;
  for (auto& e : b.engines) b.publish_bytes += e->TotalBytesSent();
  return Status::OK();
}

Status CaptureDirectory(Bench& b, const std::vector<std::string>& terms) {
  const iqn::Directory& dir = b.engines.front()->peer(0).directory();
  for (const std::string& term : terms) {
    IQN_ASSIGN_OR_RETURN(std::vector<iqn::Post> posts,
                         dir.FetchPeerList(term));
    DirCapture c;
    c.epoch = b.events;
    c.term = &term;
    for (const iqn::Post& p : posts) c.digest.Add(p.peer_id, p.list_length);
    b.dir.push_back(c);
  }
  return Status::OK();
}

// ------------------------------------------------------------ stream

/// One churn event: the next peer crawls the next pre-generated delta
/// and republishes its touched terms, then the reference is rebuilt.
Status ChurnEvent(Bench& b, Phase* phase) {
  minerva::Engine& e = *b.engines.front();
  const size_t p = b.events % b.num_peers;
  const Clock::time_point t0 = Clock::now();
  IQN_RETURN_IF_ERROR(e.peer(p).AddDocuments(b.deltas[b.events], true));
  const Clock::time_point t1 = Clock::now();
  e.RebuildReferenceIndex();
  const int64_t add_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  const int64_t rebuild_ns = ElapsedNs(t1);
  phase->add_documents_ns += add_ns;
  phase->rebuild_ns += rebuild_ns;
  phase->timed_ns += add_ns + rebuild_ns;
  ++phase->events;
  b.posts_republished += b.delta_terms[b.events].size();
  ++b.events;
  b.seen.clear();
  // Untimed: the PeerLists of every term the delta touched.
  return CaptureDirectory(b, b.delta_terms[b.events - 1]);
}

/// Runs whole rounds of the schedule until `seconds` of calls are timed
/// and kMinQueries ran, or `max_rounds` rounds ran. `capture` keeps
/// round 1 for the checks.
Status RunPhase(Bench& b, double seconds, size_t max_rounds, bool capture,
                Phase* out) {
  const std::vector<size_t>& schedule = b.inputs.schedule;
  const size_t every = b.w.spec.churn.every;
  const bool churn = every > 0 && !b.deltas.empty();
  while (out->rounds < max_rounds &&
         (static_cast<double>(out->timed_ns) < seconds * 1e9 ||
          out->latency_ns.size() < kMinQueries)) {
    const bool first_round = capture && out->rounds == 0;
    if (first_round) {
      b.store.Reserve(schedule.size(), b.w.spec.queries.k,
                      b.w.spec.engine.max_peers);
      b.round1.reserve(schedule.size());
      b.round1_ns.reserve(schedule.size());
    }
    const int64_t round_start_ns = out->timed_ns;
    const size_t round_start_queries = out->latency_ns.size();
    for (size_t pos = 0; pos < schedule.size(); ++pos) {
      if (churn && b.global_query > 0 && b.global_query % every == 0) {
        if (b.events == b.deltas.size()) {
          return Status::Internal("churn deltas exhausted");
        }
        IQN_RETURN_IF_ERROR(ChurnEvent(b, out));
      }
      const size_t qidx = schedule[pos];
      const size_t initiator = pos % b.num_peers;
      minerva::Engine& e = b.owner(initiator);
      const iqn::Query& query = b.inputs.pool[qidx];
      iqn::QueryOutcome outcome;
      const Clock::time_point t0 = Clock::now();
      const Status st = e.RunQuery(initiator, query, &outcome);
      const int64_t ns = ElapsedNs(t0);
      ++b.global_query;
      if (!st.ok()) {
        ++out->failed;
        b.Fail("query failed: " + st.ToString());
        continue;
      }
      out->latency_ns.push_back(ns);
      out->timed_ns += ns;
      b.rpc_retries += outcome.degradation.rpc_retries;
      b.rpc_failures += outcome.degradation.peers_failed +
                        outcome.degradation.term_fetches_failed;
      // The same query from the same initiator between the same churn
      // events must give the same answer, cache state notwithstanding.
      const uint64_t fp = ResultFingerprint(outcome);
      auto [it, fresh] = b.seen.emplace(std::make_pair(qidx, initiator), fp);
      if (!fresh && it->second != fp) {
        b.Fail("query " + std::to_string(qidx) + " from peer " +
               std::to_string(initiator) + " answered differently on repeat");
      }
      if (first_round) {
        b.round1.push_back(MakeLegRecord(outcome));
        b.round1_ns.push_back(ns);
        b.store.Add(b.events, qidx, initiator, outcome,
                    e.ReferenceResults(query));
      }
    }
    ++out->rounds;
    out->round_qps.push_back(
        static_cast<double>(out->latency_ns.size() - round_start_queries) /
        (static_cast<double>(out->timed_ns - round_start_ns) / 1e9));
    const std::vector<int64_t> round_ns(
        out->latency_ns.begin() + static_cast<ptrdiff_t>(round_start_queries),
        out->latency_ns.end());
    out->round_p50_ns.push_back(Percentile(round_ns, 0.50));
    out->round_p99_ns.push_back(Percentile(round_ns, 0.99));
  }
  return Status::OK();
}

// ------------------------------------------------------------ checks

/// Checks every captured outcome and PeerList against the oracle,
/// replaying the churn deltas into it in event order. Fills
/// `postings_scanned` (summed list lengths every evaluation of a
/// round-1 query reads).
Status Verify(Bench& b, double* postings_scanned) {
  IQN_ASSIGN_OR_RETURN(minerva::ScenarioWorkload copy,
                       minerva::BuildScenarioWorkload(b.w.spec));
  std::vector<Oracle> peers(b.num_peers);
  Oracle all;
  for (size_t i = 0; i < b.num_peers; ++i) {
    peers[i].Add(copy.collections[i]);
    all.Add(copy.collections[i]);
  }
  copy.collections.clear();
  std::vector<const Oracle*> views;
  for (const Oracle& o : peers) views.push_back(&o);

  size_t ci = 0, di = 0;
  double scanned = 0.0;
  for (size_t epoch = 0; epoch <= b.events; ++epoch) {
    if (epoch > 0) {
      peers[(epoch - 1) % b.num_peers].Add(b.deltas[epoch - 1]);
      all.Add(b.deltas[epoch - 1]);
    }
    for (; di < b.dir.size() && b.dir[di].epoch == epoch; ++di) {
      std::string err = CheckPeerList(*b.dir[di].term, b.dir[di].digest, views);
      if (!err.empty()) b.Fail("directory after " + std::to_string(epoch) +
                               " churn events: " + err);
    }
    for (; ci < b.captures.size() && b.captures[ci].epoch == epoch; ++ci) {
      const Capture& c = b.captures[ci];
      const iqn::Query& query = b.inputs.pool[c.qidx];
      OutcomeCheck check;
      check.query = &query;
      check.initiator_id = c.initiator;
      check.max_peers = b.w.spec.engine.max_peers;
      check.outcome = &c.outcome;
      check.reference = &c.reference;
      check.peers = &views;
      check.union_oracle = &all;
      std::string err = CheckOutcome(check);
      if (!err.empty()) {
        b.Fail("query " + std::to_string(c.qidx) + " from peer " +
               std::to_string(c.initiator) + ": " + err);
      }
      for (const std::string& term : query.terms) {
        scanned += static_cast<double>(peers[c.initiator].Df(term) +
                                       all.Df(term));
        for (const iqn::SelectedPeer& p : c.outcome.decision.peers) {
          scanned += static_cast<double>(peers[p.peer_id].Df(term));
        }
      }
    }
  }
  if (ci != b.captures.size() || di != b.dir.size()) {
    return Status::Internal("captures out of epoch order");
  }
  *postings_scanned = PerItem(scanned, b.captures.size());
  return Status::OK();
}

/// A second engine on the simulated transport replays round 1 (with
/// its churn events); `cache` selects the directory cache. Fills the
/// per-position records and wall times, and the publish wall time.
Status ReplayRound1(Bench& b, bool cache, std::vector<LegRecord>* records,
                    std::vector<int64_t>* walls, double* publish_s,
                    uint64_t* publish_bytes) {
  minerva::ScenarioSpec spec = b.w.spec;
  spec.engine.cache = cache;
  IQN_ASSIGN_OR_RETURN(minerva::ScenarioWorkload copy,
                       minerva::BuildScenarioWorkload(spec));
  IQN_ASSIGN_OR_RETURN(
      std::unique_ptr<minerva::Engine> e,
      minerva::Engine::Create(minerva::EngineOptionsFromSpec(spec, 0),
                              std::move(copy.collections)));
  const Clock::time_point t0 = Clock::now();
  IQN_RETURN_IF_ERROR(e->Publish());
  *publish_s = static_cast<double>(ElapsedNs(t0)) / 1e9;
  *publish_bytes = e->TotalBytesSent();
  const size_t every = spec.churn.every;
  size_t events = 0;
  for (size_t pos = 0; pos < b.round1.size(); ++pos) {
    if (every > 0 && !b.deltas.empty() && pos > 0 && pos % every == 0) {
      IQN_RETURN_IF_ERROR(
          e->peer(events % b.num_peers).AddDocuments(b.deltas[events], true));
      e->RebuildReferenceIndex();
      ++events;
    }
    const size_t initiator = pos % b.num_peers;
    iqn::QueryOutcome outcome;
    const Clock::time_point q0 = Clock::now();
    IQN_RETURN_IF_ERROR(e->RunQuery(
        initiator, b.inputs.pool[b.inputs.schedule[pos]], &outcome));
    walls->push_back(ElapsedNs(q0));
    records->push_back(MakeLegRecord(outcome));
  }
  return Status::OK();
}

// ------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[40];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Modeled {
  double recall = 0, bytes = 0, messages = 0, sim_latency_ms = 0;
  double routing_bytes = 0, execution_bytes = 0;
};

Modeled Round1Modeled(const Bench& b) {
  Modeled m;
  for (const Capture& c : b.captures) {
    const iqn::QueryOutcome& o = c.outcome;
    m.recall += o.recall;
    m.routing_bytes += static_cast<double>(o.routing_bytes);
    m.execution_bytes += static_cast<double>(o.execution_bytes);
    m.messages +=
        static_cast<double>(o.routing_messages + o.execution_messages);
    m.sim_latency_ms += o.routing_latency_ms + o.execution_latency_ms;
  }
  const double n = static_cast<double>(std::max<size_t>(1, b.captures.size()));
  m.recall /= n;
  m.routing_bytes /= n;
  m.execution_bytes /= n;
  m.bytes = m.routing_bytes + m.execution_bytes;
  m.messages /= n;
  m.sim_latency_ms /= n;
  return m;
}

uint64_t Counter(const char* name) {
  return iqn::MetricsRegistry::Default().GetCounter(name)->Value();
}

// ------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::string workloads_dir = "perfbench/workloads";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--selftest") {
      a.selftest = true;
      continue;
    }
    std::string value;
    if (size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Status::InvalidArgument(key + " needs a value");
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--workloads") {
      a.workloads_dir = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
    } else {
      return Status::InvalidArgument("unknown flag " + key);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return Status::InvalidArgument("bad number for " + key + ": " + value);
    }
  }
  if (!a.selftest && !have_workload) {
    return Status::InvalidArgument("--workload is required");
  }
  if (!(a.seconds > 0.0)) return Status::InvalidArgument("--seconds must be > 0");
  return a;
}

Status Run(const Args& args) {
  Bench b;
  IQN_ASSIGN_OR_RETURN(b.w, LoadWorkload(args.workloads_dir, args.workload,
                                         args.seed));
  b.trace = args.trace;
  b.seconds = args.seconds;

  // Set-up: inputs, engines, rank wiring.
  IQN_RETURN_IF_ERROR(GenerateInputs(b));
  IQN_RETURN_IF_ERROR(CreateEngines(b));
  b.setup_s = static_cast<double>(ElapsedNs(kProcessStart)) / 1e9;
  b.rss_after_setup = iqn::ReadPeakRssBytes();

  IQN_RETURN_IF_ERROR(Publish(b));
  b.rss_after_publish = iqn::ReadPeakRssBytes();
  size_t dir_terms = b.vocabulary.size();
  for (const std::vector<std::string>& terms : b.delta_terms) {
    dir_terms += terms.size();
  }
  b.dir.reserve(dir_terms);  // untouched until used, never reallocated
  IQN_RETURN_IF_ERROR(CaptureDirectory(b, b.vocabulary));

  // The stream. The traced run splits it: untraced rounds for half the
  // time, then the same number of rounds under the CpuProfiler.
  Phase untraced, traced;
  const uint64_t hits0 = Counter("cache.hits");
  const uint64_t misses0 = Counter("cache.misses");
  const uint64_t inval0 = Counter("cache.invalidations");
  IQN_RETURN_IF_ERROR(RunPhase(b, b.trace ? b.seconds / 2 : b.seconds,
                               b.trace ? kMaxRounds / 2 : kMaxRounds,
                               /*capture=*/true, &untraced));
  const uint64_t hits = Counter("cache.hits") - hits0;
  const uint64_t misses = Counter("cache.misses") - misses0;
  const uint64_t invalidations = Counter("cache.invalidations") - inval0;
  std::map<std::string, iqn::CpuProfiler::WallTotal> spans;
  if (b.trace) {
    iqn::CpuProfiler::ResetWall();
    iqn::CpuProfiler::Enable();
    Status st = RunPhase(b, std::numeric_limits<double>::infinity(),
                         untraced.rounds, /*capture=*/false, &traced);
    iqn::CpuProfiler::Disable();
    IQN_RETURN_IF_ERROR(st);
    spans = iqn::CpuProfiler::WallSnapshot();
  }
  b.peak_rss = iqn::ReadPeakRssBytes();
  b.mem = iqn::MemStats::Default().Snapshot();
  b.captures = b.store.Unpack();

  // Traced run: replay and time the public calls into each layer over
  // round 1 (FetchCandidates issues directory RPCs).
  double local_ns = 0, peer_ns = 0, ref_ns = 0, fetch_ns = 0, post_ns = 0;
  size_t peer_calls = 0, candidates = 0, posts_fetched = 0, posts_built = 0;
  if (b.trace) {
    for (const Capture& c : b.captures) {
      minerva::Engine& e = b.owner(c.initiator);
      const iqn::Query& q = b.inputs.pool[c.qidx];
      iqn::Peer& init = e.peer(c.initiator);
      Clock::time_point t0 = Clock::now();
      std::vector<ScoredDoc> local = init.ExecuteLocal(q);
      local_ns += static_cast<double>(ElapsedNs(t0));
      for (const iqn::SelectedPeer& p : c.outcome.decision.peers) {
        t0 = Clock::now();
        std::vector<ScoredDoc> r = e.peer(p.peer_id).ExecuteLocal(q);
        peer_ns += static_cast<double>(ElapsedNs(t0));
        ++peer_calls;
      }
      t0 = Clock::now();
      std::vector<ScoredDoc> ref = e.ReferenceResults(q);
      ref_ns += static_cast<double>(ElapsedNs(t0));
      t0 = Clock::now();
      IQN_ASSIGN_OR_RETURN(std::vector<iqn::CandidatePeer> cands,
                           init.FetchCandidates(q));
      fetch_ns += static_cast<double>(ElapsedNs(t0));
      candidates += cands.size();
      for (const iqn::CandidatePeer& cand : cands) posts_fetched += cand.posts.size();
    }
    std::set<std::string> pool_terms;
    for (const iqn::Query& q : b.inputs.pool) {
      pool_terms.insert(q.terms.begin(), q.terms.end());
    }
    for (size_t i = 0; i < b.num_peers; ++i) {
      iqn::Peer& peer = b.owner(i).peer(i);
      for (const std::string& term : pool_terms) {
        const Clock::time_point t0 = Clock::now();
        Result<iqn::Post> post = peer.BuildPost(term);
        const int64_t ns = ElapsedNs(t0);
        if (!post.ok()) continue;
        post_ns += static_cast<double>(ns);
        ++posts_built;
      }
    }
  }

  double postings_scanned = 0.0;
  IQN_RETURN_IF_ERROR(Verify(b, &postings_scanned));

  // Second legs: the cache-off stream and the simulated transport must
  // give the same results.
  double transport_overhead_us = 0.0, publish_overhead_ms = 0.0;
  if (b.w.spec.engine.cache || b.engines.size() > 1) {
    const bool tcp = b.engines.size() > 1;
    b.engines.clear();
    std::vector<LegRecord> records;
    std::vector<int64_t> walls;
    double publish_s = 0.0;
    uint64_t publish_bytes = 0;
    IQN_RETURN_IF_ERROR(ReplayRound1(b, /*cache=*/false, &records, &walls,
                                     &publish_s, &publish_bytes));
    if (std::string err = CompareLegs(b.round1, records, tcp); !err.empty()) {
      b.Fail(std::string(tcp ? "tcp vs simulated: " : "cache vs no cache: ") +
             err);
    }
    if (tcp) {
      if (publish_bytes != b.publish_bytes) {
        b.Fail("tcp vs simulated: publish bytes differ");
      }
      double tcp_ns = 0, sim_ns = 0;
      for (int64_t ns : b.round1_ns) tcp_ns += static_cast<double>(ns);
      for (int64_t ns : walls) sim_ns += static_cast<double>(ns);
      transport_overhead_us =
          (PerItem(tcp_ns, b.round1_ns.size()) - PerItem(sim_ns, walls.size())) /
          1e3;
      publish_overhead_ms = (b.publish_s - publish_s) * 1e3;
    }
  }

  const size_t attempted = untraced.latency_ns.size() + untraced.failed +
                           traced.latency_ns.size() + traced.failed;
  const size_t failed = untraced.failed + traced.failed;
  const Modeled m = Round1Modeled(b);
  std::fprintf(stderr,
               "perfbench %s seed=%llu: %zu peers, %zu ranks, %zu rounds of "
               "%zu queries, %zu churn events%s%s\n",
               b.w.name.c_str(), static_cast<unsigned long long>(args.seed),
               b.num_peers, b.ranks,
               untraced.rounds + traced.rounds, b.inputs.schedule.size(),
               b.events, b.error.empty() ? "" : ", FAILED CHECK: ",
               b.error.c_str());

  std::fprintf(stderr, "latency ms p10/p25/p50/p75/p90/p99:");
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    std::fprintf(stderr, " %.3f", Percentile(untraced.latency_ns, q) / 1e6);
  }
  std::fprintf(stderr, "\n");

  std::vector<Metric> metrics;
  if (!b.trace) {
    metrics = {
        {"qps", Median(untraced.round_qps), "1/s"},
        {"latency_p50_ms", Median(untraced.round_p50_ns) / 1e6, "ms"},
        {"latency_p99_ms", Median(untraced.round_p99_ns) / 1e6, "ms"},
        {"setup_s", b.setup_s, "s"},
        {"publish_s", b.publish_s, "s"},
        {"peak_rss_mb", Mb(b.peak_rss), "MB"},
        {"recall", m.recall, "ratio"},
        {"bytes_per_query", m.bytes, "bytes"},
        {"messages_per_query", m.messages, "count"},
        {"sim_latency_ms", m.sim_latency_ms, "ms"},
        {"publish_bytes", static_cast<double>(b.publish_bytes), "bytes"},
    };
  } else {
    const size_t nq = traced.latency_ns.size();
    auto span_us = [&](const char* label) {
      auto it = spans.find(label);
      return it == spans.end()
                 ? 0.0
                 : PerItem(static_cast<double>(it->second.total_ns) / 1e3, nq);
    };
    auto span_count = [&](const char* label) {
      auto it = spans.find(label);
      return it == spans.end()
                 ? 0.0
                 : PerItem(static_cast<double>(it->second.count), nq);
    };
    auto mem_mb = [&](const char* tracker) {
      auto it = b.mem.find(tracker);
      return it == b.mem.end() ? 0.0 : Mb(it->second);
    };
    double sum_publish_ms = 0;
    for (double ms : b.publish_peer_ms) sum_publish_ms += ms;
    const double untraced_per_q =
        PerItem(static_cast<double>(untraced.timed_ns), untraced.latency_ns.size());
    const double traced_per_q =
        PerItem(static_cast<double>(traced.timed_ns), nq);
    double traced_query_ns = 0;
    for (int64_t ns : traced.latency_ns) traced_query_ns += static_cast<double>(ns);
    const double covered_us =
        span_us("local_execution") + span_us("fetch_candidates") +
        span_us("route") + span_us("execute") + span_us("evaluate");
    const size_t all_events = untraced.events + traced.events;
    metrics = {
        {"workload.generate_ms", b.generate_ms, "ms"},
        {"ir.index_build_ms", b.index_build_ms, "ms"},
        {"ir.local_topk_us", PerItem(local_ns, b.captures.size()) / 1e3, "us"},
        {"ir.peer_topk_us", PerItem(peer_ns, peer_calls) / 1e3, "us"},
        {"ir.reference_topk_us", PerItem(ref_ns, b.captures.size()) / 1e3, "us"},
        {"ir.postings_scanned", postings_scanned, "count"},
        {"ir.add_documents_ms",
         PerItem(static_cast<double>(untraced.add_documents_ns +
                                     traced.add_documents_ns) / 1e6,
                 all_events),
         "ms"},
        {"ir.reference_rebuild_ms",
         PerItem(static_cast<double>(untraced.rebuild_ns + traced.rebuild_ns) /
                     1e6,
                 all_events),
         "ms"},
        {"ir.postings_mb", mem_mb(iqn::kMemPostings), "MB"},
        {"synopses.build_post_us", PerItem(post_ns, posts_built) / 1e3, "us"},
        {"synopses.posts_built",
         static_cast<double>(b.posts_republished) + [&] {
           double n = 0;
           for (const DirCapture& d : b.dir) {
             if (d.epoch == 0) n += static_cast<double>(d.digest.posts);
           }
           return n;
         }(),
         "count"},
        {"synopses.decode_us", span_us("iqn.decode"), "us"},
        {"synopses.decoded_mb", mem_mb(iqn::kMemDecodedSynopses), "MB"},
        {"dht.publish_peer_ms", PerItem(sum_publish_ms, b.publish_peer_ms.size()),
         "ms"},
        {"dht.fetch_candidates_us", PerItem(fetch_ns, b.captures.size()) / 1e3,
         "us"},
        {"dht.candidates_per_query",
         PerItem(static_cast<double>(candidates), b.captures.size()), "count"},
        {"dht.posts_fetched_per_query",
         PerItem(static_cast<double>(posts_fetched), b.captures.size()),
         "count"},
        {"dht.kv_store_mb", mem_mb(iqn::kMemDhtKvStore), "MB"},
        {"minerva.query_us", span_us("query"), "us"},
        {"minerva.local_execution_us", span_us("local_execution"), "us"},
        {"minerva.fetch_candidates_us", span_us("fetch_candidates"), "us"},
        {"minerva.route_us", span_us("route"), "us"},
        {"minerva.iqn_iterations", span_count("iqn.iteration"), "count"},
        {"minerva.execute_us", span_us("execute"), "us"},
        {"minerva.execute_peer_us", span_us("execute.peer"), "us"},
        {"minerva.merge_us", span_us("merge"), "us"},
        {"minerva.evaluate_us", span_us("evaluate"), "us"},
        {"minerva.cache_hits", static_cast<double>(hits), "count"},
        {"minerva.cache_misses", static_cast<double>(misses), "count"},
        {"minerva.cache_invalidations", static_cast<double>(invalidations),
         "count"},
        {"minerva.cache_hit_ratio",
         PerItem(static_cast<double>(hits), hits + misses), "ratio"},
        {"minerva.directory_cache_mb", mem_mb(iqn::kMemDirectoryCache), "MB"},
        {"net.rpcs_per_query", span_count("rpc"), "count"},
        {"net.routing_bytes_per_query", m.routing_bytes, "bytes"},
        {"net.execution_bytes_per_query", m.execution_bytes, "bytes"},
        {"net.rpc_us", span_us("rpc"), "us"},
        {"net.rpc_retries", static_cast<double>(b.rpc_retries), "count"},
        {"net.rpc_failures", static_cast<double>(b.rpc_failures), "count"},
        {"net.transport_overhead_us", transport_overhead_us, "us"},
        {"net.publish_overhead_ms", publish_overhead_ms, "ms"},
        {"util.rss_after_setup_mb", Mb(b.rss_after_setup), "MB"},
        {"util.rss_after_publish_mb", Mb(b.rss_after_publish), "MB"},
        {"trace.overhead_pct",
         untraced_per_q > 0 ? 100.0 * (traced_per_q / untraced_per_q - 1.0) : 0.0,
         "%"},
        {"trace.coverage_pct",
         traced_query_ns > 0 ? 100.0 * covered_us * static_cast<double>(nq) *
                                   1e3 / traced_query_ns
                             : 0.0,
         "%"},
    };
  }
  PrintResult(b.error.empty(), attempted, failed, metrics);
  return Status::OK();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  iqn::Result<perfbench::Args> args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  if (args.value().selftest) return perfbench::RunSelfTest();
  iqn::Status st = perfbench::Run(args.value());
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
