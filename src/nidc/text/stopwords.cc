#include "nidc/text/stopwords.h"

#include "nidc/util/string_util.h"

namespace nidc {

namespace {

// SMART-derived English stopword list, trimmed to the high-frequency core
// used by classic TDT preprocessing pipelines.
constexpr const char* kDefaultStopwords[] = {
    "a", "about", "above", "across", "after", "afterwards", "again",
    "against", "all", "almost", "alone", "along", "already", "also",
    "although", "always", "am", "among", "amongst", "an", "and", "another",
    "any", "anyhow", "anyone", "anything", "anyway", "anywhere", "are",
    "around", "as", "at", "back", "be", "became", "because", "become",
    "becomes", "becoming", "been", "before", "beforehand", "behind", "being",
    "below", "beside", "besides", "between", "beyond", "both", "but", "by",
    "can", "cannot", "could", "did", "do", "does", "doing", "done", "down",
    "during", "each", "eg", "eight", "either", "else", "elsewhere", "enough",
    "etc", "even", "ever", "every", "everyone", "everything", "everywhere",
    "except", "few", "fifteen", "fifty", "first", "five", "for", "former",
    "formerly", "forty", "four", "from", "front", "full", "further", "get",
    "give", "go", "had", "has", "have", "having", "he", "hence", "her",
    "here", "hereafter", "hereby", "herein", "hereupon", "hers", "herself",
    "him", "himself", "his", "how", "however", "hundred", "i", "ie", "if",
    "in", "indeed", "instead", "into", "is", "it", "its", "itself", "just",
    "last", "latter", "latterly", "least", "less", "like", "ltd", "made",
    "many", "may", "me", "meanwhile", "might", "mine", "more", "moreover",
    "most", "mostly", "much", "must", "my", "myself", "name", "namely",
    "neither", "never", "nevertheless", "next", "nine", "no", "nobody",
    "none", "noone", "nor", "not", "nothing", "now", "nowhere", "of", "off",
    "often", "on", "once", "one", "only", "onto", "or", "other", "others",
    "otherwise", "our", "ours", "ourselves", "out", "over", "own", "part",
    "per", "perhaps", "please", "put", "rather", "re", "really", "said",
    "same", "say", "says", "second", "see", "seem", "seemed", "seeming",
    "seems", "seven", "several", "she", "should", "since", "six", "sixty",
    "so", "some", "somehow", "someone", "something", "sometime", "sometimes",
    "somewhere", "still", "such", "take", "ten", "than", "that", "the",
    "their", "theirs", "them", "themselves", "then", "thence", "there",
    "thereafter", "thereby", "therefore", "therein", "thereupon", "these",
    "they", "third", "this", "those", "though", "three", "through",
    "throughout", "thru", "thus", "to", "together", "too", "toward",
    "towards", "twelve", "twenty", "two", "under", "until", "up", "upon",
    "us", "very", "via", "was", "we", "well", "were", "what", "whatever",
    "when", "whence", "whenever", "where", "whereafter", "whereas",
    "whereby", "wherein", "whereupon", "wherever", "whether", "which",
    "while", "whither", "who", "whoever", "whole", "whom", "whose", "why",
    "will", "with", "within", "without", "would", "yet", "you", "your",
    "yours", "yourself", "yourselves",
};

}  // namespace

const StopwordSet& StopwordSet::Default() {
  static const StopwordSet* const kDefault = [] {
    auto* set = new StopwordSet();
    for (const char* word : kDefaultStopwords) set->words_.insert(word);
    return set;
  }();
  return *kDefault;
}

StopwordSet StopwordSet::Empty() { return StopwordSet(); }

StopwordSet StopwordSet::FromWords(const std::vector<std::string>& words) {
  StopwordSet set;
  for (const auto& word : words) set.words_.insert(ToLower(word));
  return set;
}

}  // namespace nidc
