#include "nidc/text/porter_stemmer.h"

#include <algorithm>
#include <cctype>

// Implementation follows Porter's original 1980 description. The word is
// held in a local buffer `b` with logical end `k` (index of last character),
// mirroring the reference implementation's structure so each rule is easy to
// audit against the paper.

namespace nidc {

namespace {

class Engine {
 public:
  // `word` holds at least three characters.
  explicit Engine(std::string& word) : b_(word), k_(b_.size() - 1) {}

  // Stems the word in place.
  void Run() {
    Step1a();
    Step1b();
    Step1c();
    Step2();
    Step3();
    Step4();
    Step5a();
    Step5b();
    b_.resize(k_ + 1);
  }

 private:
  // True if b_[i] is a consonant (Porter's definition: 'y' is a consonant
  // when at position 0 or preceded by a vowel... precisely: y is a consonant
  // iff preceded by a vowel is false, i.e. y after consonant acts as vowel).
  bool IsConsonant(size_t i) const {
    switch (b_[i]) {
      case 'a':
      case 'e':
      case 'i':
      case 'o':
      case 'u':
        return false;
      case 'y':
        return i == 0 ? true : !IsConsonant(i - 1);
      default:
        return true;
    }
  }

  // Measure of the stem b_[0..j]: number of VC sequences.
  int Measure(size_t j) const {
    int n = 0;
    size_t i = 0;
    for (;;) {
      if (i > j) return n;
      if (!IsConsonant(i)) break;
      ++i;
    }
    ++i;
    for (;;) {
      for (;;) {
        if (i > j) return n;
        if (IsConsonant(i)) break;
        ++i;
      }
      ++i;
      ++n;
      for (;;) {
        if (i > j) return n;
        if (!IsConsonant(i)) break;
        ++i;
      }
      ++i;
    }
  }

  // True if b_[0..j] contains a vowel.
  bool VowelInStem(size_t j) const {
    for (size_t i = 0; i <= j; ++i) {
      if (!IsConsonant(i)) return true;
    }
    return false;
  }

  // True if b_[i-1..i] is a double consonant.
  bool DoubleConsonant(size_t i) const {
    if (i < 1) return false;
    if (b_[i] != b_[i - 1]) return false;
    return IsConsonant(i);
  }

  // True if b_[i-2..i] is consonant-vowel-consonant and the final consonant
  // is not w, x or y (used to restore 'e': cav(e), lov(e), hop(e)).
  bool CvcEnding(size_t i) const {
    if (i < 2) return false;
    if (!IsConsonant(i) || IsConsonant(i - 1) || !IsConsonant(i - 2)) {
      return false;
    }
    const char c = b_[i];
    return c != 'w' && c != 'x' && c != 'y';
  }

  // True if the word (up to k_) ends with `suffix`; if so sets j_ to the
  // offset just before the suffix.
  bool Ends(std::string_view suffix) {
    const size_t len = suffix.size();
    if (len > k_ + 1) return false;
    if (b_.compare(k_ + 1 - len, len, suffix) != 0) return false;
    j_ = k_ - len;
    return true;
  }

  // Replaces the suffix (after Ends matched) with `s`.
  void SetTo(std::string_view s) {
    b_.replace(j_ + 1, k_ - j_, s);
    k_ = j_ + s.size();
  }

  // Replaces the suffix with `s` if the stem measure is positive.
  void ReplaceIfM0(std::string_view s) {
    if (Measure(j_) > 0) SetTo(s);
  }

  void Step1a() {
    if (b_[k_] != 's') return;
    if (Ends("sses")) {
      k_ -= 2;
    } else if (Ends("ies")) {
      SetTo("i");
    } else if (k_ >= 1 && b_[k_ - 1] != 's') {
      --k_;
    }
  }

  void Step1b() {
    bool restore = false;
    if (Ends("eed")) {
      if (Measure(j_) > 0) --k_;
    } else if (Ends("ed") && VowelInStem(j_)) {
      k_ = j_;
      restore = true;
    } else if (Ends("ing") && VowelInStem(j_)) {
      k_ = j_;
      restore = true;
    }
    if (!restore) return;
    if (Ends("at")) {
      SetTo("ate");
    } else if (Ends("bl")) {
      SetTo("ble");
    } else if (Ends("iz")) {
      SetTo("ize");
    } else if (DoubleConsonant(k_)) {
      const char c = b_[k_];
      if (c != 'l' && c != 's' && c != 'z') --k_;
    } else if (Measure(k_) == 1 && CvcEnding(k_)) {
      b_.insert(b_.begin() + static_cast<long>(k_) + 1, 'e');
      ++k_;
    }
  }

  void Step1c() {
    if (Ends("y") && j_ != static_cast<size_t>(-1) && VowelInStem(j_)) {
      b_[k_] = 'i';
    }
  }

  void Step2() {
    if (k_ < 1) return;
    switch (b_[k_ - 1]) {
      case 'a':
        if (Ends("ational")) { ReplaceIfM0("ate"); break; }
        if (Ends("tional")) { ReplaceIfM0("tion"); break; }
        break;
      case 'c':
        if (Ends("enci")) { ReplaceIfM0("ence"); break; }
        if (Ends("anci")) { ReplaceIfM0("ance"); break; }
        break;
      case 'e':
        if (Ends("izer")) { ReplaceIfM0("ize"); break; }
        break;
      case 'l':
        if (Ends("bli")) { ReplaceIfM0("ble"); break; }  // DEPARTURE (Porter's own)
        if (Ends("alli")) { ReplaceIfM0("al"); break; }
        if (Ends("entli")) { ReplaceIfM0("ent"); break; }
        if (Ends("eli")) { ReplaceIfM0("e"); break; }
        if (Ends("ousli")) { ReplaceIfM0("ous"); break; }
        break;
      case 'o':
        if (Ends("ization")) { ReplaceIfM0("ize"); break; }
        if (Ends("ation")) { ReplaceIfM0("ate"); break; }
        if (Ends("ator")) { ReplaceIfM0("ate"); break; }
        break;
      case 's':
        if (Ends("alism")) { ReplaceIfM0("al"); break; }
        if (Ends("iveness")) { ReplaceIfM0("ive"); break; }
        if (Ends("fulness")) { ReplaceIfM0("ful"); break; }
        if (Ends("ousness")) { ReplaceIfM0("ous"); break; }
        break;
      case 't':
        if (Ends("aliti")) { ReplaceIfM0("al"); break; }
        if (Ends("iviti")) { ReplaceIfM0("ive"); break; }
        if (Ends("biliti")) { ReplaceIfM0("ble"); break; }
        break;
      case 'g':
        if (Ends("logi")) { ReplaceIfM0("log"); break; }  // DEPARTURE
        break;
      default:
        break;
    }
  }

  void Step3() {
    switch (b_[k_]) {
      case 'e':
        if (Ends("icate")) { ReplaceIfM0("ic"); break; }
        if (Ends("ative")) { ReplaceIfM0(""); break; }
        if (Ends("alize")) { ReplaceIfM0("al"); break; }
        break;
      case 'i':
        if (Ends("iciti")) { ReplaceIfM0("ic"); break; }
        break;
      case 'l':
        if (Ends("ical")) { ReplaceIfM0("ic"); break; }
        if (Ends("ful")) { ReplaceIfM0(""); break; }
        break;
      case 's':
        if (Ends("ness")) { ReplaceIfM0(""); break; }
        break;
      default:
        break;
    }
  }

  void Step4() {
    if (k_ < 1) return;
    switch (b_[k_ - 1]) {
      case 'a':
        if (Ends("al")) break;
        return;
      case 'c':
        if (Ends("ance")) break;
        if (Ends("ence")) break;
        return;
      case 'e':
        if (Ends("er")) break;
        return;
      case 'i':
        if (Ends("ic")) break;
        return;
      case 'l':
        if (Ends("able")) break;
        if (Ends("ible")) break;
        return;
      case 'n':
        if (Ends("ant")) break;
        if (Ends("ement")) break;
        if (Ends("ment")) break;
        if (Ends("ent")) break;
        return;
      case 'o':
        if (Ends("ion") && j_ != static_cast<size_t>(-1) &&
            (b_[j_] == 's' || b_[j_] == 't')) {
          break;
        }
        if (Ends("ou")) break;  // e.g. glamour -> glamour? ("ou" per Porter)
        return;
      case 's':
        if (Ends("ism")) break;
        return;
      case 't':
        if (Ends("ate")) break;
        if (Ends("iti")) break;
        return;
      case 'u':
        if (Ends("ous")) break;
        return;
      case 'v':
        if (Ends("ive")) break;
        return;
      case 'z':
        if (Ends("ize")) break;
        return;
      default:
        return;
    }
    if (Measure(j_) > 1) k_ = j_;
  }

  void Step5a() {
    if (b_[k_] != 'e') return;
    j_ = k_ - 1;
    const int m = Measure(k_ - 1);
    if (m > 1 || (m == 1 && !CvcEnding(k_ - 1))) --k_;
  }

  void Step5b() {
    if (b_[k_] == 'l' && DoubleConsonant(k_) && Measure(k_) > 1) --k_;
  }

  std::string& b_;
  size_t k_;                        // index of last character
  size_t j_ = static_cast<size_t>(-1);  // end of stem before matched suffix
};

}  // namespace

std::string PorterStemmer::Stem(std::string_view word) const {
  std::string stem(word);
  StemInPlace(&stem);
  return stem;
}

void PorterStemmer::StemInPlace(std::string* word) const {
  if (word->size() < 3) return;
  for (char c : *word) {
    if (c < 'a' || c > 'z') return;
  }
  Engine(*word).Run();
}

}  // namespace nidc
