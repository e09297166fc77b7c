#include "bench_common.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/file.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace trance {
namespace bench {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kStandard:
      return "STANDARD";
    case Strategy::kStandardSkew:
      return "STANDARD_SKEW";
    case Strategy::kShred:
      return "SHRED";
    case Strategy::kShredSkew:
      return "SHRED_SKEW";
    case Strategy::kUnshred:
      return "SHRED+UNSHRED";
    case Strategy::kUnshredSkew:
      return "SHRED+UNSHRED_SKEW";
    case Strategy::kSparkSql:
      return "SPARKSQL";
  }
  return "?";
}

bool IsShredded(Strategy s) {
  return s == Strategy::kShred || s == Strategy::kShredSkew ||
         s == Strategy::kUnshred || s == Strategy::kUnshredSkew;
}

bool IsSkewAware(Strategy s) {
  return s == Strategy::kStandardSkew || s == Strategy::kShredSkew ||
         s == Strategy::kUnshredSkew;
}

bool WantsUnshred(Strategy s) {
  return s == Strategy::kUnshred || s == Strategy::kUnshredSkew;
}

exec::PipelineOptions OptionsFor(Strategy s) {
  exec::PipelineOptions o = s == Strategy::kSparkSql
                                ? exec::PipelineOptions::SparkSql()
                                : exec::PipelineOptions{};
  if (IsSkewAware(s)) {
    o.exec.skew_aware = true;
  }
  return o;
}

runtime::ClusterConfig BenchClusterConfig(int num_partitions,
                                          uint64_t partition_memory_cap,
                                          uint64_t broadcast_threshold) {
  runtime::ClusterConfig c;
  c.num_partitions = num_partitions;
  c.partition_memory_cap = partition_memory_cap;
  c.broadcast_threshold = broadcast_threshold;
  c.stage_overhead_seconds = 0.005;
  c.seconds_per_net_byte = 4e-8;   // ~25 MB/s shuffle path
  c.seconds_per_cpu_byte = 1e-8;   // ~100 MB/s per-worker processing
  return c;
}

RunResult TimedRun(const std::string& name, runtime::Cluster* cluster,
                   const std::function<Status()>& body) {
  RunResult r;
  r.name = name;
  r.num_threads = cluster->num_threads();
  cluster->stats().Reset();
  obs::Tracer* tracer = &obs::Tracer::Global();
  Status st;
  {
    obs::Tracer::Span run_span(tracer, "run:" + name);
    Stopwatch watch;
    st = body();
    r.wall_s = watch.ElapsedSeconds();
  }
  const auto& stats = cluster->stats();
  r.stats = stats;
  r.ok = st.ok();
  if (!st.ok()) r.fail_reason = st.ToString();
  obs::AppendJobStagesToTrace(stats, tracer, name);
  return r;
}

namespace {

const tpch::Table* TableNamed(const tpch::TpchData& d,
                              const std::string& name) {
  const std::pair<const char*, const tpch::Table*> tables[] = {
      {"Region", &d.region},     {"Nation", &d.nation},
      {"Customer", &d.customer}, {"Orders", &d.orders},
      {"Lineitem", &d.lineitem}, {"Part", &d.part}};
  for (const auto& [n, t] : tables) {
    if (name == n) return t;
  }
  return nullptr;
}

/// Registers the inputs `program` reads in the form the standard or the
/// shredded route reads: a TPC-H table through Source (a flat table is its
/// own shredded form, X_F), COP from `nested`.
Status RegisterTpchInputs(exec::Executor* executor,
                          const nrc::Program& program,
                          const tpch::TpchData& data,
                          const NestedInput& nested, bool shredded) {
  for (const nrc::InputDecl& in : program.inputs) {
    if (in.name == "COP") {
      if (shredded && nested.shredded.has_value()) {
        exec::RegisterShreddedRun(executor, in.name, *nested.shredded);
      } else if (!shredded && nested.standard.has_value()) {
        executor->Register(in.name, *nested.standard);
      } else {
        return Status::ResourceExhausted(
            "input materialization: " +
            (shredded ? nested.shredded_fail : nested.standard_fail));
      }
      continue;
    }
    const tpch::Table* table = TableNamed(data, in.name);
    if (table == nullptr) return Status::KeyError("no TPC-H table " + in.name);
    const std::string name = shredded ? shred::FlatInputName(in.name) : in.name;
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset ds,
        runtime::Source(executor->cluster(), table->schema, table->rows, name));
    executor->Register(name, std::move(ds));
  }
  return Status::OK();
}

}  // namespace

NestedInput PrepareNestedInput(const tpch::TpchData& data, int depth,
                               tpch::Width width,
                               const runtime::ClusterConfig& config) {
  NestedInput out;
  const nrc::Program prep = tpch::FlatToNested(depth, width).ValueOrDie();
  const exec::PipelineOptions options;
  {
    runtime::Cluster cluster(config);
    exec::Executor executor(&cluster, options.exec);
    Status st = RegisterTpchInputs(&executor, prep, data, out, false);
    TRANCE_CHECK(st.ok(), st.ToString());
    auto ds = exec::RunStandard(prep, &executor, options);
    if (ds.ok()) {
      out.standard = std::move(ds).value();
    } else {
      out.standard_fail = ds.status().ToString();
    }
  }
  {
    runtime::Cluster cluster(config);
    exec::Executor executor(&cluster, options.exec);
    Status st = RegisterTpchInputs(&executor, prep, data, out, true);
    TRANCE_CHECK(st.ok(), st.ToString());
    auto run = exec::RunShredded(prep, &executor, options);
    if (run.ok()) {
      out.shredded = std::move(run).value();
    } else {
      out.shredded_fail = run.status().ToString();
    }
  }
  return out;
}

RunResult RunTpchCell(const std::string& name, const tpch::TpchData& data,
                      const NestedInput& nested, const nrc::Program& program,
                      Strategy strategy, const runtime::ClusterConfig& config,
                      const exec::PipelineOptions& options,
                      shred::MaterializeMode mode) {
  runtime::Cluster cluster(config);
  exec::Executor executor(&cluster, options.exec);
  Status setup = RegisterTpchInputs(&executor, program, data, nested,
                                    IsShredded(strategy));
  if (!setup.ok()) {
    RunResult r;
    r.name = name;
    r.fail_reason = setup.ToString();
    return r;
  }
  size_t out_rows = 0;
  RunResult r = TimedRun(name, &cluster, [&]() -> Status {
    if (!IsShredded(strategy)) {
      TRANCE_ASSIGN_OR_RETURN(runtime::Dataset out,
                              exec::RunStandard(program, &executor, options));
      out_rows = out.NumRows();
      return Status::OK();
    }
    TRANCE_ASSIGN_OR_RETURN(
        exec::ShreddedRun run,
        exec::RunShredded(program, &executor, options, mode));
    if (!WantsUnshred(strategy)) {
      out_rows = run.top.NumRows();
      return Status::OK();
    }
    TRANCE_ASSIGN_OR_RETURN(runtime::Dataset out,
                            exec::UnshredRun(&executor, run));
    out_rows = out.NumRows();
    return Status::OK();
  });
  r.out_rows = out_rows;
  return r;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-44s %9s %9s %12s %12s %12s %8s\n", "run", "wall(s)",
              "sim(s)", "shuffle", "maxstage", "peakpart", "rows");
}

void PrintResult(const RunResult& r) {
  if (!r.ok) {
    std::printf("%-44s %9s %9s %12s %12s %12s %8s   [%s]\n", r.name.c_str(),
                "FAIL", "FAIL", "-", "-", "-", "-",
                r.fail_reason.substr(0, 100).c_str());
    return;
  }
  std::printf("%-44s %9.3f %9.2f %12s %12s %12s %8zu\n", r.name.c_str(),
              r.wall_s, r.stats.totals().sim_seconds,
              FormatBytes(r.stats.totals().shuffle_bytes).c_str(),
              FormatBytes(r.stats.max_stage_shuffle_bytes()).c_str(),
              FormatBytes(r.stats.peak_partition_bytes()).c_str(), r.out_rows);
}

std::string Ratio(const RunResult& num, const RunResult& den,
                  RunMetric metric) {
  if (!num.ok || !den.ok || metric(den) == 0) return "n/a";
  double v = static_cast<double>(metric(num)) /
             static_cast<double>(metric(den));
  return FormatDouble(v, 1) + "x";
}

bool RanStrategy(const RunResult& r, Strategy s) {
  return r.name.ends_with(std::string(" ") + StrategyName(s));
}

void CheckRunsInMemory(const std::string& figure,
                       const std::vector<RunResult>& results,
                       std::initializer_list<Strategy> strategies) {
  size_t checked = 0;
  for (const RunResult& r : results) {
    for (Strategy s : strategies) {
      if (!RanStrategy(r, s)) continue;
      const uint64_t spills = r.stats.totals().spill_runs;
      TRANCE_CHECK(r.ok && spills == 0,
                   figure + " shape: " + r.name +
                       (r.ok ? " spilled " + std::to_string(spills) + " runs"
                             : " failed: " + r.fail_reason));
      ++checked;
    }
  }
  TRANCE_CHECK(checked > 0, figure + " shape: no run to check");
}

void EnableBenchObservability() {
  obs::Tracer::Global().set_enabled(true);
  obs::Tracer::Global().Clear();
  obs::GlobalEventLog().Enable(true);
  obs::GlobalEventLog().Clear();
}

namespace {

std::string BenchOutPath(const std::string& file) {
  const char* dir = std::getenv("TRANCE_BENCH_OUT");
  std::string d = (dir != nullptr && *dir != '\0') ? dir : ".";
  if (d.back() != '/') d += '/';
  return d + file;
}

}  // namespace

Status WriteBenchReport(const std::string& bench_name,
                        const std::vector<RunResult>& results,
                        const std::vector<RunResult>* baseline) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String(bench_name);
  double wall_total = 0;
  double wall_total_1thread = 0;
  w.Key("runs");
  w.BeginArray();
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    w.BeginObject();
    w.Key("name");
    w.String(r.name);
    w.Key("ok");
    w.Bool(r.ok);
    if (!r.ok) {
      w.Key("fail_reason");
      w.String(r.fail_reason);
    }
    w.Key("num_threads");
    w.Int(r.num_threads);
    w.Key("wall_seconds");
    w.Number(r.wall_s);
    if (baseline != nullptr && i < baseline->size()) {
      const RunResult& b = (*baseline)[i];
      w.Key("wall_seconds_1thread");
      w.Number(b.wall_s);
      if (r.ok && b.ok && r.wall_s > 0) {
        w.Key("speedup_vs_1thread");
        w.Number(b.wall_s / r.wall_s);
        wall_total += r.wall_s;
        wall_total_1thread += b.wall_s;
      }
    }
    w.Key("max_stage_shuffle_bytes");
    w.Uint(r.stats.max_stage_shuffle_bytes());
    w.Key("peak_partition_bytes");
    w.Uint(r.stats.peak_partition_bytes());
    w.Key("fused_stages");
    w.Uint(r.stats.fused_stages());
    for (const runtime::StatField& f : runtime::kStatFields) {
      if (f.outputs & runtime::kOutBenchRun) {
        obs::WriteStatField(f, r.stats.totals(), &w);
      }
    }
    w.Key("out_rows");
    w.Uint(r.out_rows);
    w.Key("job");
    obs::WriteJobStats(r.stats, &w);
    // The metric series, read off the run's JobStats.
    w.Key("metrics");
    obs::WriteMetricsJson(r.stats.Snapshot(), &w);
    w.EndObject();
  }
  w.EndArray();
  if (baseline != nullptr) {
    w.Key("scaling");
    w.BeginObject();
    w.Key("num_threads");
    w.Int(results.empty() ? 1 : results.front().num_threads);
    w.Key("wall_seconds_total");
    w.Number(wall_total);
    w.Key("wall_seconds_total_1thread");
    w.Number(wall_total_1thread);
    if (wall_total > 0) {
      w.Key("speedup_vs_1thread");
      w.Number(wall_total_1thread / wall_total);
    }
    w.EndObject();
  }
  w.EndObject();
  std::string metrics_path = BenchOutPath("BENCH_" + bench_name + ".json");
  TRANCE_RETURN_NOT_OK(WriteFile(metrics_path, w.str()));
  std::printf("wrote %s\n", metrics_path.c_str());

  obs::Tracer& tracer = obs::Tracer::Global();
  if (tracer.enabled()) {
    std::string trace_path =
        BenchOutPath("BENCH_" + bench_name + "_trace.json");
    TRANCE_RETURN_NOT_OK(WriteFile(trace_path, tracer.ToChromeTraceJson()));
    std::printf("wrote %s\n", trace_path.c_str());
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace trance
