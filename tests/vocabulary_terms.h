// Test helper: a vocabulary's terms, copied out in id order, so two
// vocabularies compare term by term with a readable failure message.

#ifndef NIDC_TESTS_VOCABULARY_TERMS_H_
#define NIDC_TESTS_VOCABULARY_TERMS_H_

#include <string>
#include <vector>

#include "nidc/text/vocabulary.h"

namespace nidc {

/// Every term of `vocabulary`, indexed by id.
inline std::vector<std::string> Terms(const Vocabulary& vocabulary) {
  std::vector<std::string> terms;
  terms.reserve(vocabulary.size());
  for (TermId id = 0; id < vocabulary.size(); ++id) {
    terms.emplace_back(vocabulary.term(id));
  }
  return terms;
}

}  // namespace nidc

#endif  // NIDC_TESTS_VOCABULARY_TERMS_H_
