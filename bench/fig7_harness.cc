#include "fig7_harness.h"

#include <optional>

#include "util/stopwatch.h"
#include "util/strings.h"

namespace trance {
namespace bench {

namespace {

enum class QueryKind { kFlatToNested, kNestedToNested, kNestedToFlat };

const char* KindName(QueryKind k) {
  switch (k) {
    case QueryKind::kFlatToNested:
      return "flat_to_nested";
    case QueryKind::kNestedToNested:
      return "nested_to_nested";
    case QueryKind::kNestedToFlat:
      return "nested_to_flat";
  }
  return "?";
}

runtime::ClusterConfig MakeClusterConfig(const Fig7Config& cfg) {
  runtime::ClusterConfig c =
      BenchClusterConfig(cfg.num_partitions, cfg.partition_memory_cap,
                         cfg.broadcast_threshold);
  c.num_threads = cfg.num_threads;
  return c;
}

exec::PipelineOptions OptionsForConfig(Strategy s, const Fig7Config& cfg) {
  exec::PipelineOptions o = OptionsFor(s);
  o.exec.enable_spill = cfg.enable_spill;
  return o;
}

Status RegisterAllTables(exec::Executor* executor, const tpch::TpchData& d) {
  // Flat relations double as their own shredded form (no dictionaries), so
  // both routes find their inputs.
  struct Entry {
    const tpch::Table* t;
    const char* name;
  };
  for (const Entry& e :
       {Entry{&d.region, "Region"}, Entry{&d.nation, "Nation"},
        Entry{&d.customer, "Customer"}, Entry{&d.orders, "Orders"},
        Entry{&d.lineitem, "Lineitem"}, Entry{&d.part, "Part"}}) {
    TRANCE_RETURN_NOT_OK(RegisterTable(executor, *e.t, e.name));
    TRANCE_RETURN_NOT_OK(
        RegisterTable(executor, *e.t, shred::FlatInputName(e.name)));
  }
  return Status::OK();
}

/// Prepared nested input for the nested-to-* queries (untimed).
struct NestedInput {
  std::optional<runtime::Dataset> standard;  // nullopt if materialization FAILed
  std::string standard_fail;
  std::optional<exec::ShreddedRun> shredded;
  std::string shredded_fail;
};

StatusOr<NestedInput> PrepareNestedInput(const Fig7Config& cfg,
                                         const tpch::TpchData& data,
                                         int depth) {
  NestedInput out;
  TRANCE_ASSIGN_OR_RETURN(nrc::Program prep,
                          tpch::FlatToNested(depth, cfg.width));
  exec::ExecOptions prep_exec;
  prep_exec.enable_spill = cfg.enable_spill;
  exec::PipelineOptions prep_opts;
  prep_opts.exec = prep_exec;
  {
    runtime::Cluster cluster(MakeClusterConfig(cfg));
    exec::Executor executor(&cluster, prep_exec);
    TRANCE_RETURN_NOT_OK(RegisterAllTables(&executor, data));
    auto ds = exec::RunStandard(prep, &executor, prep_opts);
    if (ds.ok()) {
      out.standard = std::move(ds).value();
    } else {
      out.standard_fail = ds.status().ToString();
    }
  }
  {
    runtime::Cluster cluster(MakeClusterConfig(cfg));
    exec::Executor executor(&cluster, prep_exec);
    TRANCE_RETURN_NOT_OK(RegisterAllTables(&executor, data));
    auto run = exec::RunShredded(prep, &executor, prep_opts);
    if (run.ok()) {
      out.shredded = std::move(run).value();
    } else {
      out.shredded_fail = run.status().ToString();
    }
  }
  return out;
}

}  // namespace

std::vector<RunResult> RunFig7(const Fig7Config& cfg) {
  std::vector<RunResult> all;
  tpch::TpchConfig tcfg;
  tcfg.scale = cfg.scale;
  tcfg.skew = cfg.skew;
  tpch::TpchData data = tpch::Generate(tcfg);

  std::string title =
      std::string("Figure 7") +
      (cfg.width == tpch::Width::kNarrow ? "a (narrow" : "b (wide") +
      " TPC-H), scale=" + FormatDouble(cfg.scale, 4) +
      ", skew=" + FormatDouble(cfg.skew, 1);
  PrintHeader(title);

  const Strategy kStrategies[] = {Strategy::kSparkSql, Strategy::kStandard,
                                  Strategy::kShred, Strategy::kUnshred};

  for (QueryKind kind :
       {QueryKind::kFlatToNested, QueryKind::kNestedToNested,
        QueryKind::kNestedToFlat}) {
    for (int depth = 0; depth <= cfg.max_depth; ++depth) {
      // Program + (for nested inputs) untimed preparation.
      StatusOr<nrc::Program> program = Status::OK();
      NestedInput nested;
      switch (kind) {
        case QueryKind::kFlatToNested:
          program = tpch::FlatToNested(depth, cfg.width);
          break;
        case QueryKind::kNestedToNested:
          program = tpch::NestedToNested(depth, cfg.width);
          break;
        case QueryKind::kNestedToFlat:
          program = tpch::NestedToFlat(depth, cfg.width);
          break;
      }
      TRANCE_CHECK(program.ok(), program.status().ToString());
      if (kind != QueryKind::kFlatToNested) {
        auto prep = PrepareNestedInput(cfg, data, depth);
        TRANCE_CHECK(prep.ok(), prep.status().ToString());
        nested = std::move(prep).value();
      }

      for (Strategy s : kStrategies) {
        std::string name = std::string(KindName(kind)) + " d" +
                           std::to_string(depth) + " " + StrategyName(s);
        const exec::PipelineOptions run_opts = OptionsForConfig(s, cfg);
        runtime::Cluster cluster(MakeClusterConfig(cfg));
        exec::Executor executor(&cluster, run_opts.exec);
        RunResult r;
        // Register inputs (untimed).
        Status setup = RegisterAllTables(&executor, data);
        if (setup.ok() && kind != QueryKind::kFlatToNested) {
          if (IsShredded(s)) {
            if (nested.shredded.has_value()) {
              setup = RegisterShreddedRun(&executor, "COP", *nested.shredded);
            } else {
              setup = Status::ResourceExhausted("input materialization: " +
                                                nested.shredded_fail);
            }
          } else {
            if (nested.standard.has_value()) {
              executor.Register("COP", *nested.standard);
              // The Part side also needs its shredded alias for SparkSQL? No:
              // standard/sparksql read plain names.
            } else {
              setup = Status::ResourceExhausted("input materialization: " +
                                                nested.standard_fail);
            }
          }
        }
        if (!setup.ok()) {
          r.name = name;
          r.ok = false;
          r.fail_reason = setup.ToString();
          PrintResult(r);
          all.push_back(std::move(r));
          continue;
        }

        size_t out_rows = 0;
        r = TimedRun(name, &cluster, [&]() -> Status {
          if (IsShredded(s)) {
            TRANCE_ASSIGN_OR_RETURN(
                exec::ShreddedRun run,
                exec::RunShredded(*program, &executor, run_opts));
            if (WantsUnshred(s)) {
              TRANCE_ASSIGN_OR_RETURN(runtime::Dataset nested_out,
                                      exec::UnshredRun(&executor, run));
              out_rows = nested_out.NumRows();
            } else {
              out_rows = run.top.NumRows();
            }
            return Status::OK();
          }
          TRANCE_ASSIGN_OR_RETURN(
              runtime::Dataset out,
              exec::RunStandard(*program, &executor, run_opts));
          out_rows = out.NumRows();
          return Status::OK();
        });
        r.out_rows = out_rows;
        PrintResult(r);
        all.push_back(std::move(r));
      }
    }
  }
  return all;
}

}  // namespace bench
}  // namespace trance
