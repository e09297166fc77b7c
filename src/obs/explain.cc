#include "obs/explain.h"

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "obs/histogram.h"
#include "plan/printer.h"
#include "util/strings.h"

namespace trance {
namespace obs {

namespace {

using runtime::FusedTransformStats;
using runtime::StageStats;

/// One stage (or one transform of a fused stage) attributed to a plan node.
/// A fused stage expands to one entry per transform, each under the
/// transform's own scope; only the entry for the chain's last transform
/// "owns" the stage, so stage-level metrics (shuffle, work histogram, sim
/// time) are counted exactly once across the chain.
struct NodeEntry {
  const StageStats* stage = nullptr;
  const FusedTransformStats* transform = nullptr;  // null for plain stages
  bool owns_stage = false;

  uint64_t rows_out() const {
    return transform != nullptr ? transform->rows_out : stage->rows_out;
  }
};

/// Stats of one plan operator, aggregated over the stages/fused transforms
/// it recorded (a node may record several: e.g. a skew-aware join records
/// split + light + heavy stages).
struct NodeStats {
  std::vector<NodeEntry> entries;

  bool empty() const { return entries.empty(); }
  /// True iff every entry is a mid-chain transform of a fused stage (the
  /// node's rows streamed through without a stage boundary of its own).
  bool fused_only() const {
    for (const auto& e : entries) {
      if (e.owns_stage) return false;
    }
    return true;
  }
  uint64_t rows_out() const {
    return entries.empty() ? 0 : entries.back().rows_out();
  }
  /// The owned stages folded with each statistic's job aggregation.
  StageStats owned() const {
    StageStats acc;
    for (const auto& e : entries) {
      if (e.owns_stage) runtime::FoldStage(*e.stage, &acc);
    }
    return acc;
  }
  double straggler() const {
    double worst = 1.0;
    for (const auto& e : entries) {
      if (!e.owns_stage) continue;
      double f = e.stage->ImbalanceFactor();
      if (f > worst) worst = f;
    }
    return worst;
  }
  /// Movement modes used, deduplicated, in first-use order.
  std::string movements() const {
    std::vector<std::string> seen;
    for (const auto& e : entries) {
      if (!e.owns_stage) continue;
      std::string m = runtime::DataMovementName(e.stage->movement);
      bool dup = false;
      for (const auto& s : seen) dup = dup || s == m;
      if (!dup) seen.push_back(std::move(m));
    }
    return Join(seen, "+");
  }
  /// Work histogram of the dominant (largest total work) stage.
  const std::vector<uint64_t>* dominant_work() const {
    const StageStats* best = nullptr;
    for (const auto& e : entries) {
      if (!e.owns_stage || e.stage->partition_work_bytes.empty()) continue;
      if (best == nullptr || e.stage->total_work_bytes > best->total_work_bytes) {
        best = e.stage;
      }
    }
    return best == nullptr ? nullptr : &best->partition_work_bytes;
  }
};

std::string FormatStat(const runtime::StatField& f, const StageStats& s) {
  if (f.unit == runtime::StatUnit::kBytes) return FormatBytes(s.*f.u64);
  if (f.f64 != nullptr) return FormatDouble(s.*f.f64, 3) + "s";
  return std::to_string(s.*f.u64);
}

/// The one clause printer: appends ` ht(build=.. hits=.. chain=..)`,
/// ` key_bytes=..` and the like for each group in `groups` with a nonzero
/// field in `s`, in group order, tokens in table order.
void AppendClauses(const StageStats& s, uint32_t groups,
                   std::ostringstream* os) {
  const uint32_t shown = groups & runtime::ShownStatGroups(s);
  for (int g = 0; g < runtime::kNumStatGroups; ++g) {
    const auto group = static_cast<runtime::StatGroup>(g);
    if (!(shown & runtime::StatGroupBit(group))) continue;
    const char* prefix = runtime::StatGroupPrefix(group);
    *os << ' ';
    if (prefix != nullptr) *os << prefix << '(';
    const char* sep = "";
    for (const runtime::StatField& f : runtime::kStatFields) {
      if (f.group != group || f.token == nullptr) continue;
      if ((f.outputs & runtime::kOutTokenIfNonzero) && f.IsZero(s)) continue;
      *os << sep << f.token << '=' << FormatStat(f, s);
      sep = " ";
    }
    if (prefix != nullptr) *os << ')';
  }
}

/// `  [rows=.. shuffle=.. mode=.. straggler=..x work(..) <clauses> sim=..s]`
/// for a node (`t` = its owned stages folded) or an unattributed stage.
std::string StageSuffix(uint64_t rows, const StageStats& t,
                        const std::string& mode, double straggler,
                        const std::vector<uint64_t>* work) {
  std::ostringstream os;
  os << "  [rows=" << rows << " shuffle=" << FormatBytes(t.shuffle_bytes)
     << " mode=" << mode << " straggler=" << FormatDouble(straggler, 2)
     << "x";
  if (work != nullptr) {
    LoadSummary ls = SummarizeLoads(*work);
    os << " work(p50/p95/max)=" << FormatBytes(ls.p50) << "/"
       << FormatBytes(ls.p95) << "/" << FormatBytes(ls.max);
  }
  AppendClauses(t, runtime::kAllStatGroups, &os);
  os << " sim=" << FormatDouble(t.sim_seconds, 3) << "s]";
  return os.str();
}

std::string StatsSuffix(const NodeStats& ns) {
  if (ns.empty()) return "  [no stages recorded]";
  if (ns.fused_only()) {
    // Mid-chain operator of a fused stage: it has per-transform row counts
    // but no stage boundary (no shuffle, no materialization) of its own.
    return "  [rows=" + std::to_string(ns.rows_out()) + " fused]";
  }
  return StageSuffix(ns.rows_out(), ns.owned(), ns.movements(),
                     ns.straggler(), ns.dominant_work());
}

void Walk(const plan::PlanPtr& p, const std::string& var, int depth,
          int* next_index,
          const std::map<std::string, NodeStats>& by_scope,
          std::ostringstream* os) {
  int index = (*next_index)++;
  std::string scope = StageScopeName(var, index);
  std::string pad(static_cast<size_t>(depth) * 2, ' ');
  auto it = by_scope.find(scope);
  *os << pad << plan::NodeLabel(p)
      << (it == by_scope.end() ? StatsSuffix(NodeStats{})
                               : StatsSuffix(it->second))
      << "\n";
  for (size_t i = 0; i < p->num_children(); ++i) {
    Walk(p->child(i), var, depth + 1, next_index, by_scope, os);
  }
}

}  // namespace

std::string StageScopeName(const std::string& var, int node_index) {
  return var + "#" + std::to_string(node_index);
}

std::string ExplainAnalyze(const plan::PlanProgram& program,
                           const runtime::JobStats& stats) {
  // Group stages by their recorded scope. A scan node re-executes nothing on
  // its own, so scopes may legitimately be missing from the map.
  std::map<std::string, NodeStats> by_scope;
  std::set<std::string> known_scopes;
  for (const auto& s : stats.stages()) {
    if (!s.fused_transforms.empty()) {
      // A fused stage expands to one entry per chained operator; the last
      // transform's node owns the stage-level metrics.
      for (size_t i = 0; i < s.fused_transforms.size(); ++i) {
        const auto& t = s.fused_transforms[i];
        if (t.scope.empty()) continue;
        by_scope[t.scope].entries.push_back(
            {&s, &t, i + 1 == s.fused_transforms.size()});
      }
    } else if (!s.scope.empty()) {
      by_scope[s.scope].entries.push_back({&s, nullptr, true});
    }
  }

  std::ostringstream os;
  os << "EXPLAIN ANALYZE\n";
  for (const auto& a : program.assignments) {
    os << a.var << " <=\n";
    int next_index = 0;
    Walk(a.plan, a.var, 1, &next_index, by_scope, &os);
    for (int i = 0; i < next_index; ++i) {
      known_scopes.insert(StageScopeName(a.var, i));
    }
  }

  // Stages recorded outside any plan operator (input sources, unshredding,
  // merged-triple unions) plus scopes that did not match the walked trees.
  std::vector<const StageStats*> unattributed;
  for (const auto& s : stats.stages()) {
    if (s.scope.empty() || known_scopes.count(s.scope) == 0) {
      unattributed.push_back(&s);
    }
  }
  if (!unattributed.empty()) {
    os << "unattributed stages:\n";
    for (const auto* s : unattributed) {
      os << "  " << s->op
         << StageSuffix(s->rows_out, *s, runtime::DataMovementName(s->movement),
                        s->ImbalanceFactor(), nullptr)
         << "\n";
    }
  }

  // Job footer: fixed fields, then the same clauses as the node lines
  // (fusion's next to fused_stages, heavy keys as a fixed field).
  const StageStats& t = stats.totals();
  runtime::StragglerSummary sk = stats.straggler();
  os << "job: stages=" << stats.stages().size();
  if (stats.fused_stages() > 0) os << " fused_stages=" << stats.fused_stages();
  AppendClauses(t, runtime::StatGroupBit(runtime::StatGroup::kFusion), &os);
  os << " shuffle=" << FormatBytes(t.shuffle_bytes)
     << " max_stage_shuffle=" << FormatBytes(stats.max_stage_shuffle_bytes())
     << " peak_partition=" << FormatBytes(stats.peak_partition_bytes())
     << " max_partition_recv=" << FormatBytes(t.max_partition_recv_bytes)
     << " max_partition_work=" << FormatBytes(t.max_partition_work_bytes)
     << " straggler=" << FormatDouble(sk.worst_imbalance, 2) << "x"
     << (sk.worst_stage.empty() ? "" : "@" + sk.worst_stage)
     << " heavy_keys=" << t.heavy_key_count;
  AppendClauses(t,
                runtime::kAllStatGroups &
                    ~runtime::StatGroupBit(runtime::StatGroup::kHeavyKeys) &
                    ~runtime::StatGroupBit(runtime::StatGroup::kFusion),
                &os);
  os << " sim=" << FormatDouble(t.sim_seconds, 3) << "s\n";
  return os.str();
}

}  // namespace obs
}  // namespace trance
