// Correctness checks over the program's outputs. Each returns an empty
// string when the output is correct and a description of the first
// violation otherwise; the self-test (selftest.cc) feeds every check a
// corrupted outcome and expects that description.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "minerva/engine.h"
#include "oracle.h"

namespace perfbench {

/// `list` is a top-k of `scores`: min(k, |scores|) distinct docs, each
/// carrying its oracle score, sorted by descending score, and no
/// unreturned doc scores strictly above the k-th.
std::string CheckTopK(const std::vector<ScoredDoc>& list,
                      const ScoreMap& scores, size_t k);

/// Everything one routed query is checked against.
struct OutcomeCheck {
  const iqn::Query* query = nullptr;
  uint64_t initiator_id = 0;
  size_t max_peers = 0;
  const iqn::QueryOutcome* outcome = nullptr;
  /// The program's reference top-k captured right after the query.
  const std::vector<ScoredDoc>* reference = nullptr;
  /// Oracle per peer id, and over the union of all collections.
  const std::vector<const Oracle*>* peers = nullptr;
  const Oracle* union_oracle = nullptr;
};

/// Selection, every returned list, the merge, the reference and the
/// reported recall of one outcome.
std::string CheckOutcome(const OutcomeCheck& check);

/// Order-independent digest of one term's PeerList as fetched from the
/// directory: its (peer id, list_length) posts. A post dropped, added,
/// repeated or changed changes it. A run keeps digests, not lists, so
/// that what it keeps per churn event stays small.
struct PeerListDigest {
  uint64_t sum = 0;
  size_t posts = 0;
  void Add(uint64_t peer_id, uint64_t list_length);
  bool operator==(const PeerListDigest&) const = default;
};

/// The digest is that of a PeerList holding exactly the peers whose
/// documents contain `term`, each once with list_length equal to its
/// document frequency.
std::string CheckPeerList(const std::string& term, const PeerListDigest& got,
                          const std::vector<const Oracle*>& peers);

/// What two runs of the same stream must agree on, per query.
struct LegRecord {
  /// Selected peers, merged (doc, score bits) and recall bits.
  uint64_t fingerprint = 0;
  uint64_t bytes = 0;
  uint64_t messages = 0;
};

uint64_t ResultFingerprint(const iqn::QueryOutcome& outcome);
LegRecord MakeLegRecord(const iqn::QueryOutcome& outcome);

/// Position-by-position agreement of two legs; `with_traffic` also
/// requires equal modeled bytes and messages.
std::string CompareLegs(const std::vector<LegRecord>& a,
                        const std::vector<LegRecord>& b, bool with_traffic);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
