// Umbrella header: the full public API of the nidc library.
//
// For finer-grained builds include the per-module headers directly; this
// header is for applications that want everything (the examples and the
// CLI use it implicitly through their specific includes).

#ifndef NIDC_NIDC_H_
#define NIDC_NIDC_H_

// Utilities.
#include "nidc/util/csv_writer.h"
#include "nidc/util/logging.h"
#include "nidc/util/random.h"
#include "nidc/util/status.h"
#include "nidc/util/stopwatch.h"
#include "nidc/util/string_util.h"
#include "nidc/util/table_printer.h"

// Text pipeline.
#include "nidc/text/analyzer.h"
#include "nidc/text/porter_stemmer.h"
#include "nidc/text/sparse_vector.h"
#include "nidc/text/stopwords.h"
#include "nidc/text/tokenizer.h"
#include "nidc/text/vocabulary.h"

// Corpus substrate.
#include "nidc/corpus/corpus.h"
#include "nidc/corpus/corpus_io.h"
#include "nidc/corpus/document.h"
#include "nidc/corpus/stream.h"
#include "nidc/corpus/tdt2_reader.h"
#include "nidc/corpus/time_window.h"

// Synthetic TDT2-like corpus.
#include "nidc/synth/tdt2_like_generator.h"

// Forgetting model.
#include "nidc/forgetting/forgetting_model.h"

// Core clustering.
#include "nidc/core/cluster.h"
#include "nidc/core/cluster_set.h"
#include "nidc/core/clustering_index.h"
#include "nidc/core/clustering_result.h"
#include "nidc/core/cover_coefficient.h"
#include "nidc/core/extended_kmeans.h"
#include "nidc/core/first_story.h"
#include "nidc/core/hot_topics.h"
#include "nidc/core/incremental_clusterer.h"
#include "nidc/core/k_estimator.h"
#include "nidc/core/novelty_similarity.h"
#include "nidc/core/state_io.h"

// Baselines.
#include "nidc/baselines/f2icm.h"
#include "nidc/baselines/group_average_clustering.h"
#include "nidc/baselines/single_pass_incr.h"
#include "nidc/baselines/spherical_kmeans.h"
#include "nidc/baselines/tfidf_model.h"

// Evaluation.
#include "nidc/eval/cluster_topic_matching.h"
#include "nidc/eval/clustering_metrics.h"
#include "nidc/eval/contingency.h"
#include "nidc/eval/f1_measures.h"
#include "nidc/eval/report.h"
#include "nidc/eval/topic_tracking.h"

#endif  // NIDC_NIDC_H_
