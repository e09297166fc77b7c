// Skew handling (Section 5): detects heavy keys by sampling, splits a skewed
// dataset into a skew-triple, and compares a plain shuffle join against the
// skew-aware join (light part shuffled, heavy part joined by broadcasting
// the matching rows of the small side).
#include <cstdio>

#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "skew/skew.h"
#include "util/random.h"
#include "util/strings.h"

using namespace trance;
using runtime::Field;
using runtime::Row;

int main() {
  runtime::ClusterConfig cfg;
  cfg.num_partitions = 8;
  cfg.stage_overhead_seconds = 0.005;
  cfg.seconds_per_net_byte = 4e-8;
  runtime::Cluster cluster(cfg);

  // A big skewed fact side (Zipf over keys) and a small dimension side.
  Rng rng(1);
  ZipfSampler zipf(512, 2.5);
  std::vector<Row> fact;
  for (int i = 0; i < 200000; ++i) {
    fact.push_back(Row({Field::Int(static_cast<int64_t>(zipf.Sample(&rng))),
                        Field::Real(rng.NextDouble())}));
  }
  std::vector<Row> dim;
  for (int64_t k = 0; k < 512; ++k) {
    dim.push_back(Row({Field::Int(k), Field::Str("name_" + std::to_string(k))}));
  }
  runtime::Schema fact_schema({{"k", nrc::Type::Int()},
                               {"v", nrc::Type::Real()}});
  runtime::Schema dim_schema({{"k2", nrc::Type::Int()},
                              {"name", nrc::Type::String()}});
  auto f = runtime::Source(&cluster, fact_schema, fact, "fact").ValueOrDie();
  auto d = runtime::Source(&cluster, dim_schema, dim, "dim").ValueOrDie();

  // Heavy-key detection by per-partition sampling. The set stores encoded
  // keys, so the demo lists the heavy ones by probing its own key domain.
  skew::HeavyKeySet hk = skew::DetectHeavyKeys(&cluster, f, {0});
  std::printf("detected %zu heavy keys (threshold %.1f%% of sampled tuples "
              "per partition):", hk.size(),
              100 * cluster.config().heavy_key_threshold);
  for (int64_t k = 0; k < 512; ++k) {
    if (hk.IsHeavy(Row({Field::Int(k)}), {0})) {
      std::printf(" %lld", static_cast<long long>(k));
    }
  }
  std::printf("\n\n");

  // Plain shuffle join: all values of a heavy key land on one worker.
  cluster.stats().Reset();
  auto plain = runtime::HashJoin(&cluster, f, d, {0}, {0},
                                 runtime::JoinType::kInner, "plain_join")
                   .ValueOrDie();
  std::printf("plain shuffle join:  %8zu rows, shuffle %9s, max recv %9s, "
              "sim %.3fs\n",
              plain.NumRows(),
              FormatBytes(cluster.stats().totals().shuffle_bytes).c_str(),
              FormatBytes(cluster.stats().stages().back()
                              .max_partition_recv_bytes)
                  .c_str(),
              cluster.stats().totals().sim_seconds);

  // Skew-aware join: the heavy keys' rows stay where they are; the matching
  // dimension rows are broadcast.
  cluster.stats().Reset();
  auto lt = skew::SkewTriple::AllLight(f);
  auto rt = skew::SkewTriple::AllLight(d);
  auto aware = skew::SkewAwareJoin(&cluster, lt, rt, {0}, {0},
                                   runtime::JoinType::kInner, "skew_join")
                   .ValueOrDie();
  std::printf("skew-aware join:     %8zu rows, shuffle %9s, sim %.3fs "
              "(light %zu + heavy %zu)\n",
              aware.NumRows(),
              FormatBytes(cluster.stats().totals().shuffle_bytes).c_str(),
              cluster.stats().totals().sim_seconds, aware.light.NumRows(),
              aware.heavy.NumRows());
  return 0;
}
