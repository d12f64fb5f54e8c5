#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {
namespace {

// The oracle and the program evaluate the same formula; allow only
// rounding-level differences so a perturbed score is still caught.
double Tolerance(double v) { return 1e-9 * std::max(1.0, std::fabs(v)); }
bool Near(double a, double b) { return std::fabs(a - b) <= Tolerance(b); }
bool Above(double a, double b) { return a > b + Tolerance(b); }

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

}  // namespace

std::string CheckTopK(const std::vector<ScoredDoc>& list,
                      const ScoreMap& scores, size_t k) {
  const size_t want = std::min(k, scores.size());
  if (list.size() != want) {
    return "returned " + std::to_string(list.size()) + " docs, expected " +
           std::to_string(want);
  }
  std::unordered_set<DocId> seen;
  for (size_t i = 0; i < list.size(); ++i) {
    const ScoredDoc& sd = list[i];
    auto it = scores.find(sd.doc);
    if (it == scores.end()) {
      return "doc " + std::to_string(sd.doc) + " matches no query term";
    }
    if (!Near(sd.score, it->second)) {
      return "doc " + std::to_string(sd.doc) + " scored " + Num(sd.score) +
             ", oracle " + Num(it->second);
    }
    if (!seen.insert(sd.doc).second) {
      return "doc " + std::to_string(sd.doc) + " returned twice";
    }
    if (i > 0 && sd.score > list[i - 1].score) {
      return "not sorted by descending score at rank " + std::to_string(i);
    }
  }
  if (list.empty()) return "";
  const double kth = list.back().score;
  for (const auto& [doc, score] : scores) {
    if (seen.count(doc) == 0 && Above(score, kth)) {
      return "unreturned doc " + std::to_string(doc) + " scores " +
             Num(score) + " above the k-th " + Num(kth);
    }
  }
  return "";
}

std::string CheckOutcome(const OutcomeCheck& c) {
  const iqn::QueryOutcome& o = *c.outcome;
  const iqn::QueryExecution& ex = o.execution;
  const std::vector<const Oracle*>& peers = *c.peers;
  const size_t k = c.query->k;

  // Selection: distinct, within budget, never the initiator.
  if (o.decision.peers.size() > c.max_peers) {
    return "selected " + std::to_string(o.decision.peers.size()) +
           " peers, budget " + std::to_string(c.max_peers);
  }
  std::unordered_set<uint64_t> selected;
  for (const iqn::SelectedPeer& p : o.decision.peers) {
    if (p.peer_id == c.initiator_id) return "selected the initiator";
    if (p.peer_id >= peers.size()) {
      return "selected unknown peer " + std::to_string(p.peer_id);
    }
    if (!selected.insert(p.peer_id).second) {
      return "selected peer " + std::to_string(p.peer_id) + " twice";
    }
  }
  if (ex.failed_peers != 0) return "a selected peer failed";
  if (ex.attempted.size() != o.decision.peers.size() ||
      ex.per_peer_results.size() != ex.attempted.size()) {
    return "attempted peers differ from the selection";
  }
  for (size_t i = 0; i < ex.attempted.size(); ++i) {
    if (ex.attempted[i].peer_id != o.decision.peers[i].peer_id) {
      return "attempted peers differ from the selection";
    }
  }

  // Every returned list is that peer's own top-k. `best` is the highest
  // oracle score of each returned doc among the lists that carry it.
  std::unordered_map<DocId, double> best;
  auto check_list = [&](const std::vector<ScoredDoc>& list, uint64_t peer_id,
                        const char* who) -> std::string {
    const ScoreMap scores = peers[peer_id]->Scores(*c.query);
    std::string err = CheckTopK(list, scores, k);
    if (!err.empty()) {
      return std::string(who) + " " + std::to_string(peer_id) +
             " top-k: " + err;
    }
    for (const ScoredDoc& sd : list) {
      const double s = scores.at(sd.doc);
      auto [it, fresh] = best.emplace(sd.doc, s);
      if (!fresh) it->second = std::max(it->second, s);
    }
    return "";
  };
  if (std::string err = check_list(ex.local_results, c.initiator_id,
                                   "initiator");
      !err.empty()) {
    return err;
  }
  for (size_t i = 0; i < ex.attempted.size(); ++i) {
    if (std::string err = check_list(ex.per_peer_results[i],
                                     ex.attempted[i].peer_id, "peer");
        !err.empty()) {
      return err;
    }
  }

  // The merge: the top-k of the returned docs, each at its best score.
  if (ex.merged.size() != std::min(k, best.size())) {
    return "merged " + std::to_string(ex.merged.size()) +
           " docs, expected " + std::to_string(std::min(k, best.size()));
  }
  std::unordered_set<DocId> in_merged;
  for (size_t i = 0; i < ex.merged.size(); ++i) {
    const ScoredDoc& sd = ex.merged[i];
    auto it = best.find(sd.doc);
    if (it == best.end()) {
      return "merged doc " + std::to_string(sd.doc) +
             " was returned by no contacted peer";
    }
    if (!Near(sd.score, it->second)) {
      return "merged doc " + std::to_string(sd.doc) + " carries " +
             Num(sd.score) + ", best holder score " + Num(it->second);
    }
    if (!in_merged.insert(sd.doc).second) {
      return "merged doc " + std::to_string(sd.doc) + " appears twice";
    }
    if (i > 0 && sd.score > ex.merged[i - 1].score) {
      return "merged list not sorted at rank " + std::to_string(i);
    }
  }
  if (!ex.merged.empty()) {
    for (const auto& [doc, score] : best) {
      if (in_merged.count(doc) == 0 && Above(score, ex.merged.back().score)) {
        return "merge dropped doc " + std::to_string(doc) + " scoring " +
               Num(score);
      }
    }
  }
  std::unordered_set<DocId> distinct;
  for (const ScoredDoc& sd : ex.all_distinct) {
    if (best.count(sd.doc) == 0 || !distinct.insert(sd.doc).second) {
      return "all_distinct is not the set of returned docs";
    }
  }
  if (distinct.size() != best.size()) {
    return "all_distinct is not the set of returned docs";
  }

  // Reference top-k over the union, and the recall against it.
  const std::vector<ScoredDoc>& ref = *c.reference;
  if (std::string err = CheckTopK(ref, c.union_oracle->Scores(*c.query), k);
      !err.empty()) {
    return "reference top-k: " + err;
  }
  size_t hits = 0;
  for (const ScoredDoc& sd : ref) hits += best.count(sd.doc);
  const double recall =
      ref.empty() ? 1.0
                  : static_cast<double>(hits) / static_cast<double>(ref.size());
  if (recall != o.recall) {
    return "reported recall " + Num(o.recall) + ", recomputed " + Num(recall);
  }
  return "";
}

void PeerListDigest::Add(uint64_t peer_id, uint64_t list_length) {
  sum += Mix(Mix(0x706c, peer_id), list_length);
  ++posts;
}

std::string CheckPeerList(const std::string& term, const PeerListDigest& got,
                          const std::vector<const Oracle*>& peers) {
  PeerListDigest want;
  for (uint64_t p = 0; p < peers.size(); ++p) {
    if (const uint64_t df = peers[p]->Df(term); df > 0) want.Add(p, df);
  }
  if (got == want) return "";
  return "term " + term + ": PeerList of " + std::to_string(got.posts) +
         " posts differs from the " + std::to_string(want.posts) +
         " peers holding the term with their document frequencies";
}

uint64_t ResultFingerprint(const iqn::QueryOutcome& outcome) {
  uint64_t h = 0x70657266;
  for (const iqn::SelectedPeer& p : outcome.decision.peers) {
    h = Mix(h, p.peer_id);
  }
  for (const ScoredDoc& sd : outcome.execution.merged) {
    h = Mix(Mix(h, sd.doc), Bits(sd.score));
  }
  return Mix(h, Bits(outcome.recall));
}

LegRecord MakeLegRecord(const iqn::QueryOutcome& outcome) {
  LegRecord r;
  r.fingerprint = ResultFingerprint(outcome);
  r.bytes = outcome.routing_bytes + outcome.execution_bytes;
  r.messages = outcome.routing_messages + outcome.execution_messages;
  return r;
}

std::string CompareLegs(const std::vector<LegRecord>& a,
                        const std::vector<LegRecord>& b, bool with_traffic) {
  if (a.size() != b.size()) {
    return "legs ran " + std::to_string(a.size()) + " and " +
           std::to_string(b.size()) + " queries";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].fingerprint != b[i].fingerprint) {
      return "query " + std::to_string(i) + ": results differ";
    }
    if (with_traffic &&
        (a[i].bytes != b[i].bytes || a[i].messages != b[i].messages)) {
      return "query " + std::to_string(i) + ": modeled traffic differs";
    }
  }
  return "";
}

}  // namespace perfbench
