#include "oracle.h"

#include <cmath>
#include <map>

namespace perfbench {

double TfIdf(uint64_t tf, uint64_t df, uint64_t n) {
  if (tf == 0 || df == 0) return 0.0;
  return (1.0 + std::log(static_cast<double>(tf))) *
         std::log(1.0 + static_cast<double>(n) / static_cast<double>(df));
}

void Oracle::Add(const iqn::Corpus& docs) {
  for (const iqn::DocTerms& doc : docs.docs()) {
    if (!docs_.insert(doc.id).second) continue;
    std::map<std::string, uint32_t> tf;
    for (const std::string& term : doc.terms) ++tf[term];
    for (const auto& [term, count] : tf) {
      postings_[term].emplace_back(doc.id, count);
    }
  }
}

uint64_t Oracle::Df(const std::string& term) const {
  auto it = postings_.find(term);
  return it == postings_.end() ? 0 : it->second.size();
}

ScoreMap Oracle::Scores(const iqn::Query& query) const {
  ScoreMap scores;
  for (const std::string& term : query.terms) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    const uint64_t df = it->second.size();
    for (const auto& [doc, tf] : it->second) {
      scores[doc] += TfIdf(tf, df, docs_.size());
    }
  }
  return scores;
}

}  // namespace perfbench
