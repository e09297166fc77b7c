// bench_diff: compares a BENCH_*.json report against a committed baseline
// (bench/baselines/) with per-metric, direction-aware policies:
//
//   - correctness-adjacent invariants (row counts, shuffle bytes, hash and
//     fusion counters, fault telemetry, every stage of the `job` object, the
//     whole `metrics` object of series) are deterministic for a given
//     workload, so ANY difference is a hard failure — either a real
//     regression or a behavior change that needs a deliberate baseline
//     refresh (see EXPERIMENTS.md);
//   - simulated times compare with a tiny relative tolerance (they are
//     deterministic doubles; the tolerance only absorbs serialization);
//   - wall-clock times only soft-warn, and only in the slower direction —
//     the CI container has one noisy CPU, so wall time is not gateable.
//
// Statistics take their policy from their determinism class in the
// runtime's statistic table (runtime/stats.h): exact hard-fails, sim allows
// 1e-9 relative, wall is skipped.
//
// Exit status: 0 = pass (warnings allowed), 1 = hard difference, 2 = usage
// or parse error. Run twice on the same build it must pass by construction;
// ci/bench_smoke.sh also checks that tampered reports fail.
//
// Usage: bench_diff <baseline.json> <candidate.json> [--max-wall-ratio R]
//        bench_diff --check-events <events.jsonl>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "runtime/stats.h"
#include "util/file.h"

namespace {

using trance::obs::JsonValue;

struct DiffState {
  int hard_failures = 0;
  int warnings = 0;
  double max_wall_ratio = 5.0;

  void Fail(const std::string& what) {
    ++hard_failures;
    std::printf("FAIL  %s\n", what.c_str());
  }
  void Warn(const std::string& what) {
    ++warnings;
    std::printf("WARN  %s\n", what.c_str());
  }
};

std::string FmtNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool NearlyEqual(double a, double b) {
  if (a == b) return true;
  double scale = std::fmax(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= 1e-9 * scale;
}

/// The `nth` (0-based) run named `name`. A report may repeat a name (the
/// shuffle table runs the Fig-7 suite twice, narrow then wide), so the k-th
/// run of a name in one report matches the k-th run of it in the other.
const JsonValue* FindRun(const JsonValue& runs, const std::string& name,
                         int nth) {
  for (const JsonValue& r : runs.arr) {
    const JsonValue* n = r.Find("name");
    if (n != nullptr && n->str == name && nth-- == 0) return &r;
  }
  return nullptr;
}

/// How one value is compared.
enum class Policy {
  kExact,     // deterministic invariant: any difference hard-fails
  kSimTime,   // deterministic double: hard-fail outside 1e-9 relative
  kWallSoft,  // wall clock: warn only, and only when slower than
              // baseline * max_wall_ratio
  kInfo,      // machine-dependent (thread budget, stage wall time): never
              // compared
  kSeries,    // the `metrics` object: every series deterministic, compared
              // like kSimTime; a candidate-only series warns (new metric)
};

Policy PolicyFor(trance::runtime::StatClass c) {
  switch (c) {
    case trance::runtime::StatClass::kExact:
      return Policy::kExact;
    case trance::runtime::StatClass::kSim:
      return Policy::kSimTime;
    case trance::runtime::StatClass::kWall:
      return Policy::kInfo;
  }
  return Policy::kExact;
}

/// Policy of a report key: a statistic's determinism class (runtime
/// table), the wall-clock and machine-dependent run keys by name, exact for
/// everything else (ok, out_rows, the derived totals, op, scope, movement,
/// load summaries, fused transforms, fault events). Keys absent from both
/// reports are skipped (e.g. fail_reason on ok runs).
Policy KeyPolicy(const std::string& key) {
  for (const trance::runtime::StatField& f : trance::runtime::kStatFields) {
    if (key == f.key) return PolicyFor(f.cls);
  }
  if (key == "wall_seconds") return Policy::kWallSoft;
  if (key == "wall_seconds_1thread" || key == "speedup_vs_1thread" ||
      key == "num_threads") {
    return Policy::kInfo;
  }
  // No metric series is a wall-clock value, so every series must match.
  if (key == "metrics") return Policy::kSeries;
  return Policy::kExact;
}

double AsNumber(const JsonValue& v) {
  if (v.kind == JsonValue::Kind::kBool) return v.b ? 1 : 0;
  return v.num;
}

/// Compares one value under `policy`. Objects recurse key by key: inside
/// `metrics` every series keeps kSeries, elsewhere each key takes its
/// KeyPolicy. Arrays compare element by element (stages match by index),
/// strings exactly.
void DiffValue(DiffState* st, const std::string& label, Policy policy,
               const JsonValue* base, const JsonValue* cand) {
  if (policy == Policy::kInfo) return;
  if (base == nullptr && cand == nullptr) return;
  if (base == nullptr || cand == nullptr) {
    st->Fail(label + ": present in only one report");
    return;
  }
  const bool base_num = base->kind == JsonValue::Kind::kNumber ||
                        base->kind == JsonValue::Kind::kBool;
  const bool cand_num = cand->kind == JsonValue::Kind::kNumber ||
                        cand->kind == JsonValue::Kind::kBool;
  if (base->kind != cand->kind && !(base_num && cand_num)) {
    st->Fail(label + ": kind changed");
    return;
  }
  if (base->is_object()) {
    auto key_policy = [&](const std::string& key) {
      return policy == Policy::kSeries ? policy : KeyPolicy(key);
    };
    for (const auto& [key, bval] : base->obj) {
      DiffValue(st, label + "." + key, key_policy(key), &bval,
                cand->Find(key));
    }
    for (const auto& [key, cval] : cand->obj) {
      if (base->Find(key) != nullptr) continue;
      if (policy == Policy::kSeries) {
        st->Warn(label + "." + key +
                 ": new metric not in baseline (refresh baselines, see "
                 "EXPERIMENTS.md)");
      } else {
        DiffValue(st, label + "." + key, key_policy(key), nullptr, &cval);
      }
    }
    return;
  }
  if (base->is_array()) {
    if (base->arr.size() != cand->arr.size()) {
      st->Fail(label + ": " + std::to_string(base->arr.size()) +
               " entries in baseline, " + std::to_string(cand->arr.size()) +
               " in candidate");
    }
    for (size_t i = 0; i < base->arr.size() && i < cand->arr.size(); ++i) {
      DiffValue(st, label + "[" + std::to_string(i) + "]", Policy::kExact,
                &base->arr[i], &cand->arr[i]);
    }
    return;
  }
  if (!base_num) {
    if (base->str != cand->str) {
      st->Fail(label + ": baseline=\"" + base->str + "\" candidate=\"" +
               cand->str + "\"");
    }
    return;
  }
  const double b = AsNumber(*base);
  const double c = AsNumber(*cand);
  switch (policy) {
    case Policy::kExact:
      if (b != c) {
        st->Fail(label + ": baseline=" + FmtNum(b) + " candidate=" + FmtNum(c));
      }
      break;
    case Policy::kSimTime:
    case Policy::kSeries:
      if (!NearlyEqual(b, c)) {
        st->Fail(label + ": baseline=" + FmtNum(b) + " candidate=" + FmtNum(c));
      }
      break;
    case Policy::kWallSoft:
      if (b > 0 && c > b * st->max_wall_ratio) {
        st->Warn(label + ": " + FmtNum(c) + "s is >" +
                 FmtNum(st->max_wall_ratio) + "x baseline " + FmtNum(b) + "s");
      }
      break;
    case Policy::kInfo:
      break;
  }
}

/// --check-events mode: validates an event-log JSONL file (one JSON object
/// per line, leading "type" string, lowercase snake_case field names). This
/// is the schema gate ci/bench_smoke.sh runs over the TRANCE_EVENT_LOG
/// output of the smoke bench.
int CheckEvents(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  auto valid_key = [](const std::string& k) {
    if (k.empty() || !(std::islower(static_cast<unsigned char>(k[0])) ||
                       k[0] == '_')) {
      return false;
    }
    for (char c : k) {
      if (!(std::islower(static_cast<unsigned char>(c)) ||
            std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
        return false;
      }
    }
    return true;
  };
  int bad = 0;
  int lineno = 0;
  size_t events = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    ++events;
    auto parsed = trance::obs::ParseJson(line);
    if (!parsed.ok()) {
      std::printf("FAIL  line %d: not valid JSON: %s\n", lineno,
                  parsed.status().ToString().c_str());
      ++bad;
      continue;
    }
    const JsonValue& v = parsed.value();
    if (!v.is_object() || v.obj.empty() || v.obj[0].first != "type" ||
        v.obj[0].second.kind != JsonValue::Kind::kString ||
        v.obj[0].second.str.empty()) {
      std::printf("FAIL  line %d: not an object with a leading type field\n",
                  lineno);
      ++bad;
      continue;
    }
    for (const auto& [key, val] : v.obj) {
      (void)val;
      if (!valid_key(key)) {
        std::printf("FAIL  line %d: field %s is not lowercase snake_case\n",
                    lineno, key.c_str());
        ++bad;
      }
    }
  }
  if (events == 0) {
    std::printf("FAIL  %s: no events\n", path);
    ++bad;
  }
  std::printf("bench_diff --check-events: %zu event(s), %d problem(s) [%s]\n",
              events, bad, path);
  return bad > 0 ? 1 : 0;
}

trance::StatusOr<JsonValue> LoadReport(const char* path) {
  std::string text;
  TRANCE_RETURN_NOT_OK(trance::ReadFile(path, &text));
  return trance::obs::ParseJson(text);
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* candidate_path = nullptr;
  DiffState st;
  if (argc == 3 && std::strcmp(argv[1], "--check-events") == 0) {
    return CheckEvents(argv[2]);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-wall-ratio") == 0 && i + 1 < argc) {
      st.max_wall_ratio = std::atof(argv[++i]);
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (candidate_path == nullptr) {
      candidate_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path == nullptr || candidate_path == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <candidate.json> "
                 "[--max-wall-ratio R]\n"
                 "       bench_diff --check-events <events.jsonl>\n");
    return 2;
  }

  auto base_or = LoadReport(baseline_path);
  if (!base_or.ok()) {
    std::fprintf(stderr, "baseline: %s\n", base_or.status().ToString().c_str());
    return 2;
  }
  auto cand_or = LoadReport(candidate_path);
  if (!cand_or.ok()) {
    std::fprintf(stderr, "candidate: %s\n",
                 cand_or.status().ToString().c_str());
    return 2;
  }
  const JsonValue& base = base_or.value();
  const JsonValue& cand = cand_or.value();

  const JsonValue* bname = base.Find("bench");
  const JsonValue* cname = cand.Find("bench");
  if (bname == nullptr || cname == nullptr || bname->str != cname->str) {
    st.Fail("bench name differs (comparing different benchmarks?)");
  }

  const JsonValue* bruns = base.Find("runs");
  const JsonValue* cruns = cand.Find("runs");
  if (bruns == nullptr || cruns == nullptr || !bruns->is_array() ||
      !cruns->is_array()) {
    std::fprintf(stderr, "reports lack a runs array\n");
    return 2;
  }
  std::map<std::string, int> seen;
  for (const JsonValue& br : bruns->arr) {
    const JsonValue* n = br.Find("name");
    if (n == nullptr) continue;
    const int nth = seen[n->str]++;
    const std::string label =
        nth == 0 ? n->str : n->str + " #" + std::to_string(nth + 1);
    const JsonValue* cr = FindRun(*cruns, n->str, nth);
    if (cr == nullptr) {
      st.Fail(label + ": run missing from candidate");
      continue;
    }
    DiffValue(&st, label, Policy::kExact, &br, cr);
  }
  seen.clear();
  for (const JsonValue& cr : cruns->arr) {
    const JsonValue* n = cr.Find("name");
    if (n != nullptr && FindRun(*bruns, n->str, seen[n->str]++) == nullptr) {
      st.Fail(n->str + ": run not in baseline (refresh baselines, see "
              "EXPERIMENTS.md)");
    }
  }

  std::printf("bench_diff: %d hard difference(s), %d warning(s) [%s vs %s]\n",
              st.hard_failures, st.warnings, baseline_path, candidate_path);
  return st.hard_failures > 0 ? 1 : 0;
}
