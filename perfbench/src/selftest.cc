// Self-test of the correctness checks: a genuine outcome from a small
// network must pass, and every deliberately corrupted copy of it must
// be rejected. Run with `perfbench --selftest`; exits 0 only when every
// check accepts the genuine case and rejects every corruption.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "minerva/api.h"
#include "minerva/scenario.h"
#include "oracle.h"

namespace perfbench {
namespace {

minerva::ScenarioSpec SmallSpec() {
  minerva::ScenarioSpec spec;
  spec.name = "selftest";
  spec.seed = 5;
  spec.corpus.documents = 800;
  spec.topology.peers = 8;
  spec.engine.max_peers = 3;
  spec.queries.pool = 8;
  return spec;
}

struct Tally {
  int failures = 0;
  void Expect(bool ok, const std::string& name, const std::string& detail) {
    std::printf("%s: %s%s%s\n", ok ? "ok" : "FAIL", name.c_str(),
                detail.empty() ? "" : ": ", detail.c_str());
    if (!ok) ++failures;
  }
  /// A corruption must make the check return a description.
  void Rejects(const std::string& name, const std::string& err) {
    Expect(!err.empty(), "rejects " + name, err);
  }
};

}  // namespace

int RunSelfTest() {
  const minerva::ScenarioSpec spec = SmallSpec();
  iqn::Result<minerva::ScenarioWorkload> inputs =
      minerva::BuildScenarioWorkload(spec);
  if (!inputs.ok()) {
    std::fprintf(stderr, "%s\n", inputs.status().ToString().c_str());
    return 1;
  }
  std::vector<Oracle> peers(inputs.value().collections.size());
  Oracle all;
  for (size_t i = 0; i < peers.size(); ++i) {
    peers[i].Add(inputs.value().collections[i]);
    all.Add(inputs.value().collections[i]);
  }
  std::vector<const Oracle*> views;
  for (const Oracle& o : peers) views.push_back(&o);
  const std::vector<iqn::Query> pool = inputs.value().pool;

  iqn::Result<std::unique_ptr<minerva::Engine>> created =
      minerva::Engine::Create(minerva::EngineOptionsFromSpec(spec, 0),
                              std::move(inputs.value().collections));
  if (!created.ok() || !created.value()->Publish().ok()) {
    std::fprintf(stderr, "selftest: engine set-up failed\n");
    return 1;
  }
  minerva::Engine& e = *created.value();

  // A query whose outcome has at least two selected peers and a full
  // merged list, so every corruption below has something to corrupt.
  iqn::QueryOutcome genuine;
  const iqn::Query* query = nullptr;
  for (const iqn::Query& q : pool) {
    iqn::QueryOutcome o;
    if (!e.RunQuery(0, q, &o).ok()) continue;
    if (o.decision.peers.size() >= 2 && o.execution.merged.size() == q.k &&
        o.execution.local_results.size() == q.k) {
      genuine = o;
      query = &q;
      break;
    }
  }
  if (query == nullptr) {
    std::fprintf(stderr, "selftest: no query with a full outcome\n");
    return 1;
  }
  const std::vector<ScoredDoc> reference = e.ReferenceResults(*query);

  Tally t;
  auto check = [&](const iqn::QueryOutcome& o,
                   const std::vector<ScoredDoc>& ref) {
    OutcomeCheck c;
    c.query = query;
    c.initiator_id = 0;
    c.max_peers = spec.engine.max_peers;
    c.outcome = &o;
    c.reference = &ref;
    c.peers = &views;
    c.union_oracle = &all;
    return CheckOutcome(c);
  };
  const std::string genuine_err = check(genuine, reference);
  t.Expect(genuine_err.empty(), "accepts the genuine outcome", genuine_err);

  auto corrupt = [&](const std::string& name,
                     const std::function<void(iqn::QueryOutcome*,
                                              std::vector<ScoredDoc>*)>& f) {
    iqn::QueryOutcome o = genuine;
    std::vector<ScoredDoc> ref = reference;
    f(&o, &ref);
    t.Rejects(name, check(o, ref));
  };
  corrupt("one local score perturbed", [](auto* o, auto*) {
    o->execution.local_results[3].score *= 1.0 + 1e-6;
  });
  corrupt("one peer score perturbed", [](auto* o, auto*) {
    o->execution.per_peer_results[0][0].score *= 1.0 - 1e-6;
  });
  corrupt("one reference score perturbed", [](auto*, auto* ref) {
    (*ref)[0].score += 1e-3;
  });
  corrupt("a merged doc that no contacted peer holds", [](auto* o, auto*) {
    o->execution.merged.back().doc = 987654321;
  });
  corrupt("a merged doc below its best holder score", [](auto* o, auto*) {
    o->execution.merged.back().score *= 0.5;
  });
  corrupt("a duplicate merged doc", [](auto* o, auto*) {
    o->execution.merged[1] = o->execution.merged[0];
  });
  corrupt("merged list out of order", [](auto* o, auto*) {
    std::swap(o->execution.merged.front(), o->execution.merged.back());
  });
  corrupt("the initiator selected", [](auto* o, auto*) {
    o->decision.peers[0].peer_id = 0;
    o->execution.attempted[0].peer_id = 0;
  });
  corrupt("a peer selected twice", [](auto* o, auto*) {
    o->decision.peers[1] = o->decision.peers[0];
    o->execution.attempted[1] = o->execution.attempted[0];
  });
  corrupt("more peers than the budget", [](auto* o, auto*) {
    o->decision.peers.resize(4, o->decision.peers[0]);
    for (size_t i = 0; i < 4; ++i) o->decision.peers[i].peer_id = 4 + i;
  });
  corrupt("a reported recall that does not recompute", [](auto* o, auto*) {
    o->recall = o->recall >= 0.5 ? o->recall - 0.1 : o->recall + 0.1;
  });

  // A top-k that leaves out a better doc: the best one is swapped for
  // the best doc outside the list.
  {
    const ScoreMap scores = peers[0].Scores(*query);
    std::vector<ScoredDoc> list = genuine.execution.local_results;
    const double kth = list.back().score;
    ScoredDoc below{0, -1.0};
    for (const auto& [doc, score] : scores) {
      bool listed = false;
      for (const ScoredDoc& sd : list) listed |= sd.doc == doc;
      if (!listed && score < kth && score > below.score) below = {doc, score};
    }
    t.Expect(below.score >= 0.0, "found a doc below the k-th", "");
    t.Expect(CheckTopK(list, scores, query->k).empty(),
             "accepts the genuine local top-k", "");
    list.erase(list.begin());
    list.push_back(below);
    t.Rejects("an unreturned doc above the k-th",
              CheckTopK(list, scores, query->k));
  }

  // Directory: one post dropped from a PeerList, one list_length off.
  {
    const iqn::Directory& dir = e.peer(0).directory();
    std::vector<iqn::Post> posts;
    std::string term;
    for (const std::string& t_term : query->terms) {
      iqn::Result<std::vector<iqn::Post>> got = dir.FetchPeerList(t_term);
      if (got.ok() && got.value().size() >= 2) {
        term = t_term;
        posts = got.value();
        break;
      }
    }
    t.Expect(!term.empty(), "found a PeerList with two posts", "");
    auto digest = [](const std::vector<iqn::Post>& list) {
      PeerListDigest d;
      for (const iqn::Post& p : list) d.Add(p.peer_id, p.list_length);
      return d;
    };
    const std::string ok = CheckPeerList(term, digest(posts), views);
    t.Expect(ok.empty(), "accepts the genuine PeerList", ok);
    std::vector<iqn::Post> dropped = posts;
    dropped.pop_back();
    t.Rejects("one post dropped from a PeerList",
              CheckPeerList(term, digest(dropped), views));
    std::vector<iqn::Post> off = posts;
    off[0].list_length += 1;
    t.Rejects("a list_length off by one",
              CheckPeerList(term, digest(off), views));
    std::vector<iqn::Post> twice = posts;
    twice.push_back(posts[0]);
    t.Rejects("a peer posted twice", CheckPeerList(term, digest(twice), views));
    std::vector<iqn::Post> swapped = posts;
    std::swap(swapped[0].list_length, swapped[1].list_length);
    if (swapped[0].list_length != posts[0].list_length) {
      t.Rejects("two peers' list_lengths swapped",
                CheckPeerList(term, digest(swapped), views));
    }
  }

  // Second legs: one doc changed in a cluster result, traffic changed.
  {
    const std::vector<LegRecord> leg = {MakeLegRecord(genuine)};
    t.Expect(CompareLegs(leg, leg, true).empty(), "accepts equal legs", "");
    iqn::QueryOutcome changed = genuine;
    changed.execution.merged[2].doc += 1;
    t.Rejects("one doc changed in a cluster result",
              CompareLegs(leg, {MakeLegRecord(changed)}, true));
    std::vector<LegRecord> heavier = leg;
    heavier[0].bytes += 1;
    t.Rejects("modeled bytes differ across transports",
              CompareLegs(leg, heavier, true));
    t.Expect(CompareLegs(leg, heavier, false).empty(),
             "cache comparison ignores traffic", "");
    t.Rejects("a leg that ran fewer queries", CompareLegs(leg, {}, false));
  }

  std::printf("selftest: %s\n", t.failures == 0 ? "passed" : "FAILED");
  return t.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
