// Micro-benchmarks (google-benchmark) for the runtime primitives and the
// shredding kernels: shuffle hash join vs broadcast join, nest vs cogroup,
// sum aggregation with/without map-side combine, value shredding and
// unshredding, heavy-key detection, and dedup. The broadcast join and the
// sum aggregation also run on string keys, the key-encoding path of string
// cells.
//
// BM_FlatHashBuild/BM_FlatHashProbe time the flat open-addressing table on
// pre-encoded keys; BM_ColumnScan/BM_ColumnProject compare typed
// PartitionBlock column loops against row-vector Field dispatch. main()
// additionally runs a fixed-size rows/sec regression pass over dedup, join
// build/probe, and nest with spilling forced and off, written to
// BENCH_micro_spill.json, before the google-benchmark suite starts.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "nrc/builder.h"
#include "runtime/cluster.h"
#include "runtime/column.h"
#include "runtime/flat_hash.h"
#include "runtime/key_codec.h"
#include "runtime/ops.h"
#include "runtime/serde.h"
#include "shred/value_shredder.h"
#include "skew/skew.h"
#include "util/file.h"
#include "util/random.h"

namespace trance {
namespace {

using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::Dataset;
using runtime::Field;
using runtime::Row;
using runtime::Schema;

Schema KvSchema(bool string_keys = false) {
  return Schema({{"k", string_keys ? nrc::Type::String() : nrc::Type::Int()},
                 {"v", nrc::Type::Real()}});
}

/// n (key, value) rows over `keys` Zipf-distributed keys. String keys are
/// TPC-H-style customer names ("Customer#000000042"), the key shape of the
/// narrow_unnest workload.
Dataset MakeKv(Cluster* cluster, int64_t n, int64_t keys, double zipf,
               uint64_t seed, bool string_keys = false) {
  Rng rng(seed);
  ZipfSampler sampler(static_cast<size_t>(keys), zipf);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const auto k = static_cast<int64_t>(sampler.Sample(&rng));
    Field key = Field::Int(k);
    if (string_keys) {
      char name[32];
      std::snprintf(name, sizeof(name), "Customer#%09lld",
                    static_cast<long long>(k));
      key = Field::Str(name);
    }
    rows.push_back(Row({std::move(key), Field::Real(rng.NextDouble())}));
  }
  return runtime::Source(cluster, KvSchema(string_keys), std::move(rows), "kv")
      .ValueOrDie();
}

void BM_HashJoin(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  Dataset l = MakeKv(&cluster, state.range(0), 1000, 0.0, 1);
  Dataset r = MakeKv(&cluster, 1000, 1000, 0.0, 2);
  for (auto _ : state) {
    auto j = runtime::HashJoin(&cluster, l, r, {0}, {0},
                               runtime::JoinType::kInner, "join");
    benchmark::DoNotOptimize(j);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(10000)->Arg(100000);

/// arg 1 = 1 joins on string keys, arg 1 = 0 on int keys.
void BM_BroadcastJoin(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  const bool string_keys = state.range(1) != 0;
  Dataset l = MakeKv(&cluster, state.range(0), 1000, 0.0, 1, string_keys);
  Dataset r = MakeKv(&cluster, 1000, 1000, 0.0, 2, string_keys);
  for (auto _ : state) {
    auto j = runtime::BroadcastJoin(&cluster, l, r, {0}, {0},
                                    runtime::JoinType::kInner, "bjoin");
    benchmark::DoNotOptimize(j);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BroadcastJoin)
    ->Args({10000, 0})
    ->Args({100000, 0})
    ->Args({10000, 1})
    ->Args({100000, 1});

void BM_SkewAwareJoin(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  // Heavily skewed left side.
  Dataset l = MakeKv(&cluster, state.range(0), 1000, 3.0, 1);
  Dataset r = MakeKv(&cluster, 1000, 1000, 0.0, 2);
  for (auto _ : state) {
    auto lt = skew::SkewTriple::AllLight(l);
    auto rt = skew::SkewTriple::AllLight(r);
    auto j = skew::SkewAwareJoin(&cluster, lt, rt, {0}, {0},
                                 runtime::JoinType::kInner, "sjoin");
    benchmark::DoNotOptimize(j);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkewAwareJoin)->Arg(10000)->Arg(100000);

/// arg 1 = 1 combines map-side; arg 2 = 1 groups on string keys, 0 on int
/// keys.
void BM_SumAggregate(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  Dataset ds =
      MakeKv(&cluster, state.range(0), 64, 0.0, 3, state.range(2) != 0);
  bool combine = state.range(1) != 0;
  for (auto _ : state) {
    auto out =
        runtime::SumAggregate(&cluster, ds, {0}, {1}, combine, "sum");
    benchmark::DoNotOptimize(out);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SumAggregate)
    ->Args({100000, 1, 0})
    ->Args({100000, 0, 0})
    ->Args({100000, 1, 1})
    ->Args({100000, 0, 1});

void BM_NestGroup(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  Dataset ds = MakeKv(&cluster, state.range(0), 1024, 0.0, 4);
  for (auto _ : state) {
    auto out = runtime::NestGroup(&cluster, ds, {0}, {1}, "bag", "nest");
    benchmark::DoNotOptimize(out);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NestGroup)->Arg(100000);

Dataset MakeDup(Cluster* cluster, int64_t n, int64_t distinct, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int64_t k = rng.UniformRange(0, distinct);
    rows.push_back(Row({Field::Int(k), Field::Str("p" + std::to_string(k))}));
  }
  Schema s({{"k", nrc::Type::Int()}, {"p", nrc::Type::String()}});
  return runtime::Source(cluster, std::move(s), std::move(rows), "dup")
      .ValueOrDie();
}

void BM_Distinct(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  // ~16 duplicates per distinct row: the membership-test path dominates
  // (the path that historically deep-copied the whole row per test).
  Dataset ds = MakeDup(&cluster, state.range(0), state.range(0) / 16, 6);
  for (auto _ : state) {
    auto out = runtime::Distinct(&cluster, ds, "dedup");
    benchmark::DoNotOptimize(out);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Distinct)->Arg(100000);

void BM_HeavyKeyDetection(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  Dataset ds = MakeKv(&cluster, state.range(0), 1000, 2.0, 5);
  for (auto _ : state) {
    auto hk = skew::DetectHeavyKeys(&cluster, ds, {0});
    benchmark::DoNotOptimize(hk);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeavyKeyDetection)->Arg(100000);

nrc::Value MakeNested(int64_t customers, int64_t orders_per,
                      int64_t parts_per) {
  Rng rng(7);
  std::vector<nrc::Value> tops;
  for (int64_t c = 0; c < customers; ++c) {
    std::vector<nrc::Value> os;
    for (int64_t o = 0; o < orders_per; ++o) {
      std::vector<nrc::Value> ps;
      for (int64_t k = 0; k < parts_per; ++k) {
        ps.push_back(nrc::Value::Tuple(
            {{"pid", nrc::Value::Int(rng.UniformRange(0, 100))},
             {"qty", nrc::Value::Real(rng.NextDouble())}}));
      }
      os.push_back(nrc::Value::Tuple({{"odate", nrc::Value::Int(o)},
                                      {"oparts", nrc::Value::Bag(ps)}}));
    }
    tops.push_back(nrc::Value::Tuple(
        {{"cname", nrc::Value::Str("c" + std::to_string(c))},
         {"corders", nrc::Value::Bag(os)}}));
  }
  return nrc::Value::Bag(tops);
}

nrc::TypePtr NestedType() {
  using nrc::dsl::BagTu;
  using nrc::Type;
  return BagTu(
      {{"cname", Type::String()},
       {"corders",
        BagTu({{"odate", Type::Int()},
               {"oparts",
                BagTu({{"pid", Type::Int()}, {"qty", Type::Real()}})}})}});
}

namespace key_codec = runtime::key_codec;
namespace flat_hash = runtime::flat_hash;

/// Pre-encoded distinct keys for the container micro-benchmarks (an int +
/// short string key, the shape the keyed operators encode most).
std::vector<key_codec::EncodedKey> MakeEncodedKeys(int64_t n) {
  key_codec::KeyEncoder enc;
  std::vector<key_codec::EncodedKey> keys;
  keys.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Row row({Field::Int(i), Field::Str("k" + std::to_string(i))});
    keys.push_back(key_codec::Materialize(enc.EncodeRow(row)));
  }
  return keys;
}

/// Inserts n distinct pre-encoded keys into a flat table, growth included
/// (tables start empty, as nest/aggregate builds do).
void BM_FlatHashBuild(benchmark::State& state) {
  std::vector<key_codec::EncodedKey> keys = MakeEncodedKeys(state.range(0));
  for (auto _ : state) {
    flat_hash::FlatKeyIndex idx;
    for (const auto& k : keys) {
      benchmark::DoNotOptimize(
          idx.FindOrInsert(key_codec::EncodedKeyRef{k.hash, k.bytes}));
    }
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatHashBuild)->Arg(1000)->Arg(100000);

/// Probe side: every lookup hits a key built once outside the timed loop
/// (the join-probe access pattern).
void BM_FlatHashProbe(benchmark::State& state) {
  std::vector<key_codec::EncodedKey> keys = MakeEncodedKeys(state.range(0));
  flat_hash::FlatKeyIndex idx(keys.size());
  for (const auto& k : keys) {
    idx.FindOrInsert(key_codec::EncodedKeyRef{k.hash, k.bytes});
  }
  for (auto _ : state) {
    uint64_t found = 0;
    for (const auto& k : keys) {
      found += idx.Find(key_codec::EncodedKeyRef{k.hash, k.bytes}) !=
               flat_hash::FlatKeyIndex::kNotFound;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatHashProbe)->Arg(1000)->Arg(100000);

namespace column = runtime::column;

/// Rows for the row-vs-block column benchmarks: the kv shape (int key,
/// real value), the layout the typed scan loops target.
std::vector<Row> MakeScanRows(int64_t n) {
  Rng rng(9);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Row({Field::Int(rng.UniformRange(0, 1 << 20)),
                        Field::Real(rng.NextDouble())}));
  }
  return rows;
}

/// Column scan ablation (PR 8): sum the int and real columns of n rows.
/// arg 1 = 1 scans the PartitionBlock's flat typed arrays; arg 1 = 0 is the
/// historical row loop with per-cell variant dispatch. The block build is
/// outside the timed loop (operators amortize it across the whole stage).
void BM_ColumnScan(benchmark::State& state) {
  std::vector<Row> rows = MakeScanRows(state.range(0));
  column::PartitionBlock block =
      column::PartitionBlock::FromRows(KvSchema(), rows);
  const bool columnar = state.range(1) != 0;
  for (auto _ : state) {
    int64_t isum = 0;
    double rsum = 0;
    if (columnar) {
      const int64_t* ks = block.col(0).ints();
      const double* vs = block.col(1).reals();
      for (size_t i = 0; i < block.NumRows(); ++i) {
        isum += ks[i];
        rsum += vs[i];
      }
    } else {
      for (const Row& r : rows) {
        isum += r.fields[0].AsInt();
        rsum += r.fields[1].AsReal();
      }
    }
    benchmark::DoNotOptimize(isum);
    benchmark::DoNotOptimize(rsum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnScan)->Args({65536, 1})->Args({65536, 0});

/// Column project ablation (PR 8): copy the (int, real) columns out of a
/// three-column (int, real, string) input. The block path copies each
/// column as one range (AnyColumn::AppendRange, what a project's
/// pass-through columns do; string arena untouched); the row path copies
/// Fields row-by-row into fresh Rows.
void BM_ColumnProject(benchmark::State& state) {
  Rng rng(10);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(state.range(0)));
  for (int64_t i = 0; i < state.range(0); ++i) {
    rows.push_back(Row({Field::Int(i), Field::Real(rng.NextDouble()),
                        Field::Str("p" + std::to_string(i % 997))}));
  }
  Schema s({{"k", nrc::Type::Int()},
            {"v", nrc::Type::Real()},
            {"p", nrc::Type::String()}});
  column::PartitionBlock block = column::PartitionBlock::FromRows(s, rows);
  const bool columnar = state.range(1) != 0;
  for (auto _ : state) {
    if (columnar) {
      column::AnyColumn k(column::AnyColumn::Kind::kInt64);
      column::AnyColumn v(column::AnyColumn::Kind::kReal);
      k.AppendRange(block.col(0), 0, block.NumRows());
      v.AppendRange(block.col(1), 0, block.NumRows());
      benchmark::DoNotOptimize(k.size() + v.size());
    } else {
      std::vector<Row> out;
      out.reserve(rows.size());
      for (const Row& r : rows) {
        out.push_back(Row({r.fields[0], r.fields[1]}));
      }
      benchmark::DoNotOptimize(out.size());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnProject)->Args({65536, 1})->Args({65536, 0});

namespace serde = runtime::serde;

/// The serde throughput benchmarks time the path spill takes: one typed
/// int + string block (the dup shape: int key, short string) written as a
/// block record and decoded straight back into columns.
std::string SerdeBenchPath() {
  return (std::filesystem::temp_directory_path() /
          ("trance-serde-bench-" + std::to_string(::getpid()) + ".trs"))
      .string();
}

Schema SerdeBenchSchema() {
  return Schema({{"k", nrc::Type::Int()}, {"v", nrc::Type::String()}});
}

column::PartitionBlock SerdeBenchBlock(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int64_t k = rng.UniformRange(0, 1 << 20);
    rows.push_back(Row({Field::Int(k), Field::Str("p" + std::to_string(k))}));
  }
  return column::PartitionBlock::FromRows(SerdeBenchSchema(), rows);
}

/// Serde write throughput: serialize the block into one buffer
/// (AppendFileHeader + AppendBlockRecord) and write it as a run file with
/// one WriteFile call (bytes/s is the number to watch; docs/STORAGE.md
/// format).
void BM_SerdeWrite(benchmark::State& state) {
  const column::PartitionBlock block =
      SerdeBenchBlock(state.range(0), 11);
  const std::string path = SerdeBenchPath();
  std::string file;
  for (auto _ : state) {
    file.clear();
    serde::AppendFileHeader(&file);
    serde::AppendBlockRecord(block, 0, block.NumRows(), &file);
    TRANCE_CHECK(WriteFile(path, file).ok(), "serde bench write");
    benchmark::DoNotOptimize(file.data());
    benchmark::ClobberMemory();
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(file.size()));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerdeWrite)->Arg(65536);

/// Serde read throughput: read the same run file back with one ReadFile
/// call and decode it into a fresh block through ReadBlockFile.
void BM_SerdeRead(benchmark::State& state) {
  const std::string path = SerdeBenchPath();
  const column::PartitionBlock block = SerdeBenchBlock(state.range(0), 12);
  std::string file;
  serde::AppendFileHeader(&file);
  serde::AppendBlockRecord(block, 0, block.NumRows(), &file);
  TRANCE_CHECK(WriteFile(path, file).ok(), "serde bench write");
  for (auto _ : state) {
    TRANCE_CHECK(ReadFile(path, &file).ok(), "serde bench read");
    column::PartitionBlock back(SerdeBenchSchema());
    TRANCE_CHECK(serde::ReadBlockFile(file, path, &back).ok(),
                 "serde bench decode");
    TRANCE_CHECK(back.NumRows() == static_cast<size_t>(state.range(0)),
                 "serde bench row count");
    benchmark::DoNotOptimize(back);
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(file.size()));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerdeRead)->Arg(65536);

void BM_ValueShred(benchmark::State& state) {
  nrc::Value v = MakeNested(state.range(0), 10, 10);
  nrc::TypePtr t = NestedType();
  for (auto _ : state) {
    auto sv = shred::ShredValue(v, t);
    benchmark::DoNotOptimize(sv);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 100);
}
BENCHMARK(BM_ValueShred)->Arg(100);

void BM_ValueUnshred(benchmark::State& state) {
  nrc::Value v = MakeNested(state.range(0), 10, 10);
  nrc::TypePtr t = NestedType();
  auto sv = shred::ShredValue(v, t).ValueOrDie();
  for (auto _ : state) {
    auto back = shred::UnshredValue(sv, t);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 100);
}
BENCHMARK(BM_ValueUnshred)->Arg(100);

}  // namespace

// Fixed-size regression pass over the keyed operators — dedup, join
// build/probe, nest — for the out-of-core spill path. The .spill_forced runs
// use a 64 KiB per-partition memory cap — under every operator's output
// partitions, so the stage barrier spills them through runtime/spill.h run
// files — while the .spill_off runs use the default 256 MiB cap, which no
// partition here reaches, so nothing spills. Stats
// transparency is asserted in-binary: rows, movement stats, simulated time
// and keyed counters are bit-identical across the pair, the forced runs
// report spill_* > 0, and the off runs report exactly 0. Results land in
// BENCH_micro_spill.json.
Status RunSpillAblation() {
  std::vector<bench::RunResult> results;
  const int64_t n = 200000;
  for (bool forced : {true, false}) {
    ClusterConfig cfg{.num_partitions = 8};
    if (forced) cfg.partition_memory_cap = 64ull << 10;
    Cluster cluster(cfg);
    const std::string suffix = forced ? ".spill_forced" : ".spill_off";

    Dataset dup = MakeDup(&cluster, n, n / 16, 6);
    size_t rows = 0;
    bench::RunResult r = bench::TimedRun(
        "distinct" + suffix, &cluster, [&]() -> Status {
          TRANCE_ASSIGN_OR_RETURN(Dataset out,
                                  runtime::Distinct(&cluster, dup, "dedup"));
          rows = out.NumRows();
          return Status::OK();
        });
    r.out_rows = rows;
    results.push_back(std::move(r));

    Dataset l = MakeKv(&cluster, n, 1000, 0.0, 1);
    Dataset d = MakeKv(&cluster, 1000, 1000, 0.0, 2);
    r = bench::TimedRun("hash_join" + suffix, &cluster, [&]() -> Status {
      TRANCE_ASSIGN_OR_RETURN(
          Dataset out, runtime::HashJoin(&cluster, l, d, {0}, {0},
                                         runtime::JoinType::kInner, "join"));
      rows = out.NumRows();
      return Status::OK();
    });
    r.out_rows = rows;
    results.push_back(std::move(r));

    Dataset kv = MakeKv(&cluster, n, 1024, 0.0, 4);
    r = bench::TimedRun("nest" + suffix, &cluster, [&]() -> Status {
      TRANCE_ASSIGN_OR_RETURN(
          Dataset out,
          runtime::NestGroup(&cluster, kv, {0}, {1}, "bag", "nest"));
      rows = out.NumRows();
      return Status::OK();
    });
    r.out_rows = rows;
    results.push_back(std::move(r));
  }

  // Stats transparency: run i (spill forced under a tiny cap) against run
  // i + 3 (uncapped, nothing spills).
  for (size_t i = 0; i < 3; ++i) {
    const bench::RunResult& forced = results[i];
    const bench::RunResult& off = results[i + 3];
    TRANCE_CHECK(forced.ok && off.ok, "spill ablation run failed");
    TRANCE_CHECK(forced.out_rows == off.out_rows,
                 "spill ablation: result rows differ for " + forced.name);
    const runtime::StageStats& f = forced.stats.totals();
    const runtime::StageStats& o = off.stats.totals();
    TRANCE_CHECK(f.shuffle_bytes == o.shuffle_bytes &&
                     forced.stats.max_stage_shuffle_bytes() ==
                         off.stats.max_stage_shuffle_bytes() &&
                     forced.stats.peak_partition_bytes() ==
                         off.stats.peak_partition_bytes(),
                 "spill ablation: movement stats differ for " + forced.name);
    TRANCE_CHECK(f.sim_seconds == o.sim_seconds,
                 "spill ablation: sim time differs for " + forced.name);
    TRANCE_CHECK(f.key_encode_bytes == o.key_encode_bytes &&
                     f.hash_build_rows == o.hash_build_rows &&
                     f.hash_probe_hits == o.hash_probe_hits &&
                     f.hash_max_chain == o.hash_max_chain,
                 "spill ablation: keyed counters differ for " + forced.name);
    TRANCE_CHECK(f.spill_runs > 0 && f.spill_bytes_written > 0,
                 "spill ablation: nothing spilled in " + forced.name);
    TRANCE_CHECK(f.spill_bytes_read == f.spill_bytes_written,
                 "spill ablation: restore did not stream every spilled byte");
    TRANCE_CHECK(o.spill_bytes_written == 0 && o.spill_bytes_read == 0 &&
                     o.spill_runs == 0 && o.spill_merge_passes == 0,
                 "spill ablation: counters leak into " + off.name);
  }

  bench::PrintHeader("spill ablation (rows/s = rows / wall)");
  for (const auto& r : results) bench::PrintResult(r);
  return bench::WriteBenchReport("micro_spill", results);
}

}  // namespace trance

int main(int argc, char** argv) {
  TRANCE_CHECK(trance::RunSpillAblation().ok(), "spill ablation");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
