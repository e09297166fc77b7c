// Performance benchmark driver: runs one workload of nested queries for a
// fixed time and prints one JSON line with its metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --spill-dir <dir>
//
// Workloads (inputs are generated from --seed):
//   narrow_unnest      narrow TPC-H (Figure 7a), nested-to-flat query of
//                      depth 3 on the standard route: fused unnest chains, a
//                      join with Part and a top-level aggregation. Uniform
//                      keys; nothing spills.
//   wide_skew_regroup  wide TPC-H (Figure 7b) with Zipf-skewed foreign keys,
//                      nested-to-nested query of depth 2 on the skew-aware
//                      shredded route followed by unshredding: shuffles,
//                      keyed hash builds, heavy-key sampling and the cogroups
//                      that regroup dictionaries into nested output.
//   biomed_spill       the five-step biomedical pipeline (Figure 9) on the
//                      standard route under a partition memory cap that its
//                      flattened intermediates exceed, so stage outputs spill
//                      run files to --spill-dir and stream back.
//
// One query compiles and executes the workload's program and collects its
// result rows, on one worker thread, in a closed loop with one client. Set-up
// (generating the inputs, loading them onto the cluster, and materializing
// the nested inputs with the system's own flat-to-nested query) is repeated
// throughout the measurement window; its median is reported.
//
// Correctness is checked three ways: on a small input drawn from the same
// seed, the measured route's result equals the NRC interpreter's; at
// benchmark scale, the first result equals that of an independent
// configuration (another compilation route, or no memory cap); and every
// measured result has the same order-insensitive fingerprint as the first.
//
// --trace 0 prints the end-to-end metrics: the median calibrated query
// latency, the simulated cluster time of one query (the paper's reported
// quantity), and the median calibrated set-up time. On a shared machine the
// whole host slows down 1.5-2x for minutes at a time as the neighbours' load
// comes and goes, and every wall-clock time with it, so each query and each
// set-up is followed by a fixed calibration kernel that does not call the
// library, and a calibrated time is the ratio of the two scaled by the
// kernel's nominal time (see CalibrationKernel). The ratio cancels the host's
// speed but not the program's.
//
// --trace 1 turns the program's span tracer on and prints per-layer metrics:
// the 10th, 50th and 90th percentiles of wall-clock query latency with
// tracing on, the median time of the calibration kernel, the median time per
// query of each compile and execute phase, the median time of each set-up
// phase, and the runtime's counters for one query.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "biomed/generator.h"
#include "biomed/pipeline.h"
#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "nrc/interp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "shred/shredded_type.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/hash.h"

namespace trance {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Calibrated times are (time / kernel time) * kCalibrationNominalMs, so they
/// read in milliseconds; the constant is about the kernel's time on an idle
/// x86 core.
constexpr double kCalibrationNominalMs = 10;

volatile uint64_t g_calibration_sink = 0;

/// A fixed amount of the kind of work a query does (hashing, hash-table
/// inserts, sorting, short strings) that does not depend on the library, so a
/// change to the program leaves its time alone. Returns its wall time in ms.
double CalibrationKernel() {
  constexpr uint64_t kN = 60000;
  const Clock::time_point t0 = Clock::now();
  std::unordered_map<uint64_t, uint64_t> table;
  std::vector<uint64_t> keys;
  std::vector<std::string> strings;
  for (uint64_t i = 0; i < kN; ++i) {
    const uint64_t h = SplitMix64(i);
    table[h % (kN / 2)] += i;
    keys.push_back(h);
    if (i % 4 == 0) strings.push_back(std::to_string(h));
  }
  std::sort(keys.begin(), keys.end());
  std::sort(strings.begin(), strings.end());
  uint64_t acc = keys[kN / 2] + strings.front().size();
  for (const auto& [k, v] : table) acc += k ^ v;
  g_calibration_sink = g_calibration_sink + acc;
  return MillisSince(t0);
}

/// Runs the calibration kernel right after a time of `ms` was measured and
/// returns that time in calibrated milliseconds.
double Calibrated(double ms, std::vector<double>* calibration_ms) {
  const double kernel_ms = CalibrationKernel();
  calibration_ms->push_back(kernel_ms);
  return ms / kernel_ms * kCalibrationNominalMs;
}

// Share of the measurement window spent repeating the set-up, in batches of
// at least kSetupBatchMs. Spreading the batches over the window keeps a burst
// of load on the machine from skewing the set-up median; batching keeps most
// repeats from starting on the caches a query has just churned.
constexpr double kSetupShare = 0.1;
constexpr double kSetupBatchMs = 50;
constexpr int kWarmupQueries = 2;
constexpr int kNumPartitions = 8;
constexpr uint64_t kBroadcastThreshold = 48ull << 10;
constexpr uint64_t kUncapped = 1ull << 40;
// Far below the biomedical pipeline's largest flattened partitions (1.1-1.8
// MB), so about 45-55 stage-output partitions spill per query.
constexpr uint64_t kBiomedCap = 128ull << 10;

enum class Route {
  kStandard,          // Section 3: unnest, execute flat plans
  kShredUnshredSkew,  // Sections 4-5: shred, skew-aware execution, unshred
};

runtime::ClusterConfig MakeConfig(uint64_t cap, const std::string& spill_dir) {
  runtime::ClusterConfig c;
  c.num_partitions = kNumPartitions;
  c.partition_memory_cap = cap;
  c.broadcast_threshold = kBroadcastThreshold;
  // The figure benchmarks' cost model: simulated time tracks data movement.
  c.stage_overhead_seconds = 0.005;
  c.seconds_per_net_byte = 4e-8;
  c.seconds_per_cpu_byte = 1e-8;
  c.num_threads = 1;
  c.spill.dir = spill_dir;
  return c;
}

exec::PipelineOptions RouteOptions(Route route) {
  exec::PipelineOptions o;
  o.exec.skew_aware = route == Route::kShredUnshredSkew;
  return o;
}

/// A cluster and an executor holding a workload's registered inputs.
struct Session {
  Session(uint64_t cap, Route route, const std::string& spill_dir)
      : cluster(MakeConfig(cap, spill_dir)),
        executor(&cluster, RouteOptions(route).exec) {}
  runtime::Cluster cluster;
  exec::Executor executor;
};

struct SetupTimes {
  double generate_ms = 0;
  double load_ms = 0;
  double prepare_ms = 0;
};

/// Runs `program` on `route` and returns its nested result.
StatusOr<runtime::Dataset> RunRoute(Route route, const nrc::Program& program,
                                    exec::Executor* executor) {
  const exec::PipelineOptions opts = RouteOptions(route);
  if (route == Route::kStandard) {
    return exec::RunStandard(program, executor, opts);
  }
  TRANCE_ASSIGN_OR_RETURN(exec::ShreddedRun run,
                          exec::RunShredded(program, executor, opts));
  return exec::UnshredRun(executor, run);
}

StatusOr<nrc::Value> ToValue(const runtime::Dataset& ds) {
  return exec::RowsToValue(ds.Collect(), ds.schema);
}

class Workload {
 public:
  Workload(nrc::Program query, Route route, Route reference_route,
           uint64_t cap)
      : query_(std::move(query)),
        route_(route),
        reference_route_(reference_route),
        cap_(cap) {}
  virtual ~Workload() = default;

  /// Replaces the inputs with fresh ones drawn from `seed`; `small` inputs
  /// are sized for the interpreter.
  virtual void Generate(uint64_t seed, bool small) = 0;
  /// Registers the inputs on `s` in the representation `route` reads.
  virtual Status Load(Route route, Session* s, SetupTimes* t) const = 0;
  /// The query's result on the current inputs, from the NRC interpreter.
  virtual StatusOr<nrc::Value> Oracle() const = 0;

  const nrc::Program& query() const { return query_; }
  Route route() const { return route_; }
  Route reference_route() const { return reference_route_; }
  uint64_t cap() const { return cap_; }

 private:
  nrc::Program query_;
  Route route_;
  Route reference_route_;
  uint64_t cap_;
};

class TpchWorkload : public Workload {
 public:
  struct Spec {
    tpch::Width width;
    int depth;
    double skew;
    double scale;
    bool nested_to_flat;  // else nested-to-nested
    Route route;
    Route reference_route;
  };
  static constexpr double kSmallScale = 0.0005;

  explicit TpchWorkload(const Spec& spec)
      : Workload((spec.nested_to_flat
                      ? tpch::NestedToFlat(spec.depth, spec.width)
                      : tpch::NestedToNested(spec.depth, spec.width))
                     .ValueOrDie(),
                 spec.route, spec.reference_route, kUncapped),
        spec_(spec),
        prep_(tpch::FlatToNested(spec.depth, spec.width).ValueOrDie()) {}

  void Generate(uint64_t seed, bool small) override {
    tpch::TpchConfig c;
    c.scale = small ? kSmallScale : spec_.scale;
    c.skew = spec_.skew;
    c.seed = seed;
    data_ = tpch::Generate(c);
  }

  Status Load(Route route, Session* s, SetupTimes* t) const override {
    const bool shredded = route != Route::kStandard;
    Clock::time_point t0 = Clock::now();
    for (const nrc::Program* p : {&prep_, &query()}) {
      for (const auto& in : p->inputs) {
        const tpch::Table* table = TableNamed(in.name);
        if (table == nullptr || s->executor.Has(InputName(in.name, shredded))) {
          continue;
        }
        TRANCE_ASSIGN_OR_RETURN(
            runtime::Dataset ds,
            runtime::Source(&s->cluster, table->schema, table->rows, in.name));
        s->executor.Register(InputName(in.name, shredded), std::move(ds));
      }
    }
    t->load_ms += MillisSince(t0);

    // The nested input COP is the flat-to-nested query's output, computed
    // by the system on the route that reads it.
    t0 = Clock::now();
    const exec::PipelineOptions opts;
    if (shredded) {
      TRANCE_ASSIGN_OR_RETURN(exec::ShreddedRun run,
                              exec::RunShredded(prep_, &s->executor, opts));
      s->executor.Register(shred::FlatInputName("COP"), run.top);
      for (const auto& [path, ds] : run.dicts) {
        s->executor.Register(shred::DictInputName("COP", path), ds);
      }
    } else {
      TRANCE_ASSIGN_OR_RETURN(runtime::Dataset cop,
                              exec::RunStandard(prep_, &s->executor, opts));
      s->executor.Register("COP", std::move(cop));
    }
    t->prepare_ms += MillisSince(t0);
    return Status::OK();
  }

  StatusOr<nrc::Value> Oracle() const override {
    std::map<std::string, nrc::Value> tables;
    for (const auto& in : prep_.inputs) {
      TRANCE_ASSIGN_OR_RETURN(tables[in.name], TableValue(in.name));
    }
    nrc::Interpreter interp;
    TRANCE_ASSIGN_OR_RETURN(auto nested, interp.EvalProgram(prep_, tables));
    std::map<std::string, nrc::Value> inputs;
    for (const auto& in : query().inputs) {
      if (in.name == "COP") {
        inputs[in.name] = nested.at(prep_.result().var);
      } else {
        TRANCE_ASSIGN_OR_RETURN(inputs[in.name], TableValue(in.name));
      }
    }
    TRANCE_ASSIGN_OR_RETURN(auto out, interp.EvalProgram(query(), inputs));
    return out.at(query().result().var);
  }

 private:
  static std::string InputName(const std::string& name, bool shredded) {
    return shredded ? shred::FlatInputName(name) : name;
  }

  const tpch::Table* TableNamed(const std::string& name) const {
    const std::pair<const char*, const tpch::Table*> tables[] = {
        {"Region", &data_.region},     {"Nation", &data_.nation},
        {"Customer", &data_.customer}, {"Orders", &data_.orders},
        {"Lineitem", &data_.lineitem}, {"Part", &data_.part}};
    for (const auto& [n, t] : tables) {
      if (name == n) return t;
    }
    return nullptr;
  }

  StatusOr<nrc::Value> TableValue(const std::string& name) const {
    const tpch::Table* t = TableNamed(name);
    if (t == nullptr) return Status::Invalid("no TPC-H table " + name);
    return exec::RowsToValue(t->rows, t->schema);
  }

  Spec spec_;
  nrc::Program prep_;
  tpch::TpchData data_;
};

class BiomedWorkload : public Workload {
 public:
  BiomedWorkload(const biomed::BiomedConfig& config, uint64_t cap)
      : Workload(biomed::E2EProgram(), Route::kStandard, Route::kStandard,
                 cap),
        config_(config) {}

  void Generate(uint64_t seed, bool small) override {
    biomed::BiomedConfig c = config_;
    if (small) {
      c.samples = 8;
      c.genes = 30;
      c.mutations_per_sample = 5;
      c.network_edges = 120;
      c.cnvs_per_sample = 6;
    }
    c.seed = seed;
    data_ = biomed::Generate(c);
  }

  Status Load(Route route, Session* s, SetupTimes* t) const override {
    if (route != Route::kStandard) {
      return Status::Invalid("biomed inputs load on the standard route only");
    }
    Clock::time_point t0 = Clock::now();
    for (const Input& in : Inputs()) {
      TRANCE_ASSIGN_OR_RETURN(
          runtime::Dataset ds,
          runtime::Source(&s->cluster, *in.schema, *in.rows, in.name));
      s->executor.Register(in.name, std::move(ds));
    }
    t->load_ms += MillisSince(t0);
    return Status::OK();
  }

  StatusOr<nrc::Value> Oracle() const override {
    std::map<std::string, nrc::Value> inputs;
    for (const Input& in : Inputs()) {
      TRANCE_ASSIGN_OR_RETURN(inputs[in.name],
                              exec::RowsToValue(*in.rows, *in.schema));
    }
    nrc::Interpreter interp;
    TRANCE_ASSIGN_OR_RETURN(auto out, interp.EvalProgram(query(), inputs));
    return out.at(query().result().var);
  }

 private:
  struct Input {
    const char* name;
    const runtime::Schema* schema;
    const std::vector<runtime::Row>* rows;
  };
  std::vector<Input> Inputs() const {
    return {{"BN2", &data_.bn2_schema, &data_.bn2},
            {"BN1", &data_.bn1_schema, &data_.bn1},
            {"BF1", &data_.bf1_schema, &data_.bf1},
            {"BF2", &data_.bf2_schema, &data_.bf2},
            {"BF3", &data_.bf3_schema, &data_.bf3}};
  }

  biomed::BiomedConfig config_;
  biomed::BiomedData data_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "narrow_unnest") {
    return std::make_unique<TpchWorkload>(TpchWorkload::Spec{
        tpch::Width::kNarrow, 3, 0.0, 0.002, /*nested_to_flat=*/true,
        Route::kStandard, Route::kShredUnshredSkew});
  }
  if (name == "wide_skew_regroup") {
    return std::make_unique<TpchWorkload>(TpchWorkload::Spec{
        tpch::Width::kWide, 2, 2.0, 0.001, /*nested_to_flat=*/false,
        Route::kShredUnshredSkew, Route::kStandard});
  }
  if (name == "biomed_spill") {
    // Many small samples, so the flattened intermediates (and what spills)
    // vary little from seed to seed; few genes, so the joins on genes in
    // steps 2 and 3 keep some of every sample's genes and the result is
    // not empty.
    biomed::BiomedConfig c;
    c.samples = 160;
    c.genes = 80;
    c.mutations_per_sample = 5;
    c.cnvs_per_sample = 10;
    c.network_edges = 320;
    return std::make_unique<BiomedWorkload>(c, kBiomedCap);
  }
  return nullptr;
}

/// Order-insensitive digest of a result: equal multisets of rows give equal
/// fingerprints (bag-valued fields hash order-insensitively too).
struct Fingerprint {
  size_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Fingerprint& o) const {
    return rows == o.rows && sum == o.sum;
  }
};

Fingerprint FingerprintOf(const std::vector<runtime::Row>& rows) {
  Fingerprint f;
  f.rows = rows.size();
  for (const runtime::Row& r : rows) f.sum += SplitMix64(runtime::RowHash(r));
  return f;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Compile and execute phases, as named by the program's tracer spans.
const char* const kPhaseSpans[][2] = {
    {"typecheck", "typecheck_ms"},     {"unnest", "unnest_ms"},
    {"optimize", "optimize_ms"},       {"shred_materialize", "shred_ms"},
    {"execute", "execute_ms"},         {"unshred", "unshred_ms"},
};

/// The value of registry metric `name`, summed over its labeled series.
double RegistryValue(const std::vector<obs::MetricSample>& samples,
                     const char* name) {
  double v = 0;
  for (const obs::MetricSample& s : samples) {
    if (s.name != name) continue;
    v += s.kind == obs::MetricKind::kCounter
             ? static_cast<double>(s.counter_value)
             : s.gauge_value;
  }
  return v;
}

/// Runtime counters of one query: registry name, metric name, unit.
const char* const kRegistryMetrics[][3] = {
    {"trance_stages_total", "stages", "count"},
    {"trance_fused_stages_total", "fused_stages", "count"},
    {"trance_shuffle_bytes_total", "shuffle_bytes", "B"},
    {"trance_peak_partition_bytes", "peak_partition_bytes", "B"},
    {"trance_hash_build_rows_total", "hash_build_rows", "count"},
    {"trance_key_encode_bytes_total", "key_encode_bytes", "B"},
    {"trance_columnar_bytes_total", "columnar_bytes", "B"},
    {"trance_column_to_row_conversions_total", "column_to_row_conversions",
     "count"},
    {"trance_spill_bytes_written_total", "spill_bytes_written", "B"},
    {"trance_spill_bytes_read_total", "spill_bytes_read", "B"},
    {"trance_spill_runs_total", "spill_runs", "count"},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spill_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::string(v) == "1";
    } else if (k == "--spill-dir") {
      a->spill_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         !a->spill_dir.empty();
}

int Fail(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  return 1;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  bool correct = true;

  // 1. Interpreter oracle on a small input from the same seed.
  {
    w->Generate(args.seed, /*small=*/true);
    StatusOr<nrc::Value> expected = w->Oracle();
    if (!expected.ok()) return Fail("oracle", expected.status());
    Session s(w->cap(), w->route(), args.spill_dir);
    SetupTimes ignored;
    Status st = w->Load(w->route(), &s, &ignored);
    if (!st.ok()) return Fail("small load", st);
    StatusOr<runtime::Dataset> got = RunRoute(w->route(), w->query(),
                                              &s.executor);
    StatusOr<nrc::Value> got_value =
        got.ok() ? ToValue(*got) : StatusOr<nrc::Value>(got.status());
    if (!got_value.ok() || !nrc::ApproxDeepBagEquals(*expected, *got_value)) {
      std::fprintf(stderr, "perfbench: small-input result differs from the "
                           "interpreter\n");
      correct = false;
    }
  }

  // 2. Set-up. The first one builds the measured session; more are spread
  // over the measurement window (step 5).
  std::vector<double> setup_s;  // calibrated
  std::vector<SetupTimes> setup_phases;
  std::vector<double> calibration_ms;
  auto set_up = [&]() -> StatusOr<std::unique_ptr<Session>> {
    SetupTimes t;
    const Clock::time_point t0 = Clock::now();
    w->Generate(args.seed, /*small=*/false);
    t.generate_ms = MillisSince(t0);
    auto s = std::make_unique<Session>(w->cap(), w->route(), args.spill_dir);
    TRANCE_RETURN_NOT_OK(w->Load(w->route(), s.get(), &t));
    setup_s.push_back(Calibrated(MillisSince(t0), &calibration_ms) / 1e3);
    setup_phases.push_back(t);
    return s;
  };
  StatusOr<std::unique_ptr<Session>> first = set_up();
  if (!first.ok()) return Fail("set-up", first.status());
  const std::unique_ptr<Session> session = std::move(first).value();

  // 3. Reference result from an independent configuration (untimed).
  nrc::Value reference;
  {
    Session ref(kUncapped, w->reference_route(), args.spill_dir);
    SetupTimes ignored;
    Status st = w->Load(w->reference_route(), &ref, &ignored);
    if (!st.ok()) return Fail("reference load", st);
    StatusOr<runtime::Dataset> ds =
        RunRoute(w->reference_route(), w->query(), &ref.executor);
    if (!ds.ok()) return Fail("reference query", ds.status());
    StatusOr<nrc::Value> v = ToValue(*ds);
    if (!v.ok()) return Fail("reference result", v.status());
    reference = std::move(v).value();
  }

  runtime::Cluster& cluster = session->cluster;
  auto run_query = [&]() {
    cluster.stats().Reset();
    cluster.metrics().Reset();
    return RunRoute(w->route(), w->query(), &session->executor);
  };

  // 4. Warm-up; the first result is checked against the reference.
  Fingerprint expected_fp;
  for (int i = 0; i < kWarmupQueries; ++i) {
    StatusOr<runtime::Dataset> ds = run_query();
    if (!ds.ok()) return Fail("warm-up query", ds.status());
    if (i == 0) {
      StatusOr<nrc::Value> v = ToValue(*ds);
      if (!v.ok() || !nrc::ApproxDeepBagEquals(reference, *v)) {
        std::fprintf(stderr, "perfbench: result differs from the reference "
                             "configuration\n");
        correct = false;
      }
      expected_fp = FingerprintOf(ds->Collect());
      if (expected_fp.rows == 0) {
        std::fprintf(stderr, "perfbench: empty result; nothing to check\n");
        correct = false;
      }
    }
  }

  // 5. Measurement: queries, with set-ups interleaved so that they take
  // about kSetupShare of the window.
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.set_enabled(args.trace);
  std::vector<double> latency_ms;
  std::vector<double> calibrated_latency_ms;
  std::vector<double> collect_ms;
  std::map<std::string, std::vector<double>> phase_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_busy_ms = 0;
  const Clock::time_point window = Clock::now();
  for (double elapsed = 0; elapsed < args.seconds * 1e3;
       elapsed = MillisSince(window)) {
    if (setup_busy_ms < kSetupShare * elapsed) {
      const Clock::time_point t0 = Clock::now();
      do {
        StatusOr<std::unique_ptr<Session>> extra = set_up();
        if (!extra.ok()) return Fail("set-up", extra.status());
      } while (MillisSince(t0) < kSetupBatchMs);
      setup_busy_ms += MillisSince(t0);
      continue;
    }
    tracer.Clear();
    const Clock::time_point t0 = Clock::now();
    StatusOr<runtime::Dataset> ds = run_query();
    const Clock::time_point t1 = Clock::now();
    std::vector<runtime::Row> rows;
    if (ds.ok()) rows = ds->Collect();
    const double ms = MillisSince(t0);
    const double collect = MillisSince(t1);
    ++attempted;
    if (!ds.ok() || !(FingerprintOf(rows) == expected_fp)) {
      ++failed;
      continue;
    }
    latency_ms.push_back(ms);
    calibrated_latency_ms.push_back(Calibrated(ms, &calibration_ms));
    if (!args.trace) continue;
    collect_ms.push_back(collect);
    std::map<std::string, double> per_query;
    for (const obs::TraceEvent& ev : tracer.events()) {
      per_query[ev.name] += ev.dur_us / 1e3;
    }
    for (const auto& span : kPhaseSpans) {
      phase_ms[span[1]].push_back(per_query[span[0]]);
    }
  }
  tracer.set_enabled(false);
  if (failed > 0) correct = false;

  // Every query does the same work, so the last one's counters stand for all
  // of them.
  const std::vector<obs::MetricSample> counters = cluster.metrics().Snapshot();
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back(
        {"calibrated_latency_ms", Median(calibrated_latency_ms), "ms"});
    metrics.push_back(
        {"sim_s", RegistryValue(counters, "trance_sim_seconds_total"), "s"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
  } else {
    metrics.push_back(
        {"traced_latency_p10_ms", Quantile(latency_ms, 0.1), "ms"});
    metrics.push_back({"traced_latency_ms", Median(latency_ms), "ms"});
    metrics.push_back(
        {"traced_latency_p90_ms", Quantile(latency_ms, 0.9), "ms"});
    metrics.push_back({"calibration_ms", Median(calibration_ms), "ms"});
    for (const auto& span : kPhaseSpans) {
      metrics.push_back({span[1], Median(phase_ms[span[1]]), "ms"});
    }
    metrics.push_back({"collect_ms", Median(collect_ms), "ms"});
    std::vector<double> gen, load, prep;
    for (const SetupTimes& t : setup_phases) {
      gen.push_back(t.generate_ms);
      load.push_back(t.load_ms);
      prep.push_back(t.prepare_ms);
    }
    metrics.push_back({"setup_generate_ms", Median(gen), "ms"});
    metrics.push_back({"setup_load_ms", Median(load), "ms"});
    metrics.push_back({"setup_prepare_ms", Median(prep), "ms"});
    for (const auto& m : kRegistryMetrics) {
      metrics.push_back({m[1], RegistryValue(counters, m[0]), m[2]});
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace trance

int main(int argc, char** argv) {
  trance::perfbench::Args args;
  if (!trance::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --spill-dir <dir>\n");
    return 2;
  }
  return trance::perfbench::Run(args);
}
