// Independent reference computations the benchmark checks the program
// against. Nothing here calls into the program's ir/ or minerva/ code
// paths: the oracle keeps raw term frequencies of the generated
// documents and recomputes tf-idf, (1 + ln tf) * ln(1 + N / df), itself.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ir/corpus.h"
#include "ir/query.h"
#include "ir/top_k.h"

namespace perfbench {

using iqn::DocId;
using iqn::ScoredDoc;

/// (1 + ln tf) * ln(1 + n / df); 0 when tf or df is 0.
double TfIdf(uint64_t tf, uint64_t df, uint64_t n);

/// Oracle score of every document matching any query term: the sum of
/// its per-term tf-idf scores (disjunctive semantics).
using ScoreMap = std::unordered_map<DocId, double>;

/// A plain tf-idf index over one document collection.
class Oracle {
 public:
  /// Adds every document whose id is not held yet (a document fetched
  /// twice is the same document, as in a crawl merge).
  void Add(const iqn::Corpus& docs);

  size_t num_docs() const { return docs_.size(); }
  bool Holds(DocId doc) const { return docs_.count(doc) > 0; }
  /// Documents containing `term`.
  uint64_t Df(const std::string& term) const;
  ScoreMap Scores(const iqn::Query& query) const;

 private:
  std::unordered_set<DocId> docs_;
  /// term -> (doc, term frequency), in insertion order.
  std::unordered_map<std::string, std::vector<std::pair<DocId, uint32_t>>>
      postings_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
