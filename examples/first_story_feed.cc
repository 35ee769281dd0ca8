// First-story feed: run the novelty-based first story detector over the
// synthetic newswire and print each flagged story with its ground-truth
// topic — watch new events fire as they enter the stream and old ones
// re-fire after their life span lapses.
//
//   $ ./first_story_feed [days=60] [scale=0.15] [threshold=0.10]

#include <cstdio>
#include <cstdlib>

#include "nidc/core/first_story.h"
#include "nidc/corpus/stream.h"
#include "nidc/synth/tdt2_like_generator.h"

int main(int argc, char** argv) {
  using namespace nidc;

  const double days = argc > 1 ? std::atof(argv[1]) : 60.0;
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.15;
  const double threshold = argc > 3 ? std::atof(argv[3]) : 0.10;

  GeneratorOptions gen_opts;
  gen_opts.scale = scale;
  Tdt2LikeGenerator generator(gen_opts);
  auto corpus_or = generator.Generate();
  if (!corpus_or.ok()) {
    std::fprintf(stderr, "%s\n", corpus_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Corpus> corpus = std::move(corpus_or).value();

  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 21.0;
  FirstStoryOptions options;
  options.novelty_threshold = threshold;
  FirstStoryDetector detector(corpus.get(), params, options);

  std::printf("Watching %.0f days (threshold %.2f, half-life 7d, "
              "life span 21d)\n\n",
              days, threshold);
  size_t observed = 0;
  DocumentStream stream(corpus.get(), 0.0, days, 1.0);
  while (auto batch = stream.Next()) {
    auto verdicts = detector.Observe(batch->docs, batch->end);
    if (!verdicts.ok()) {
      std::fprintf(stderr, "%s\n", verdicts.status().ToString().c_str());
      return 1;
    }
    for (const FirstStoryVerdict& v : *verdicts) {
      ++observed;
      if (!v.is_first_story) continue;
      const Document& doc = corpus->doc(v.doc);
      std::printf("day %5.1f  NEW EVENT  doc %-5u max-sim %.2f  [%s]\n",
                  doc.time, v.doc, v.max_similarity,
                  generator.TopicName(doc.topic).c_str());
    }
  }
  std::printf("\n%zu first stories among %zu documents; %zu docs active "
              "now (older ones expired).\n",
              detector.num_first_stories(), observed,
              detector.model().active_docs().size());
  return 0;
}
