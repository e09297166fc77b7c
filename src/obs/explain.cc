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
  uint64_t shuffle_bytes() const {
    uint64_t s = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) s += e.stage->shuffle_bytes;
    }
    return s;
  }
  uint64_t bytes_avoided() const {
    uint64_t s = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) s += e.stage->intermediate_bytes_avoided;
    }
    return s;
  }
  double sim_seconds() const {
    double s = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) s += e.stage->sim_seconds;
    }
    return s;
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
  uint64_t heavy_keys() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->heavy_key_count;
    }
    return n;
  }
  uint64_t key_encode_bytes() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->key_encode_bytes;
    }
    return n;
  }
  uint64_t hash_build_rows() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->hash_build_rows;
    }
    return n;
  }
  uint64_t hash_probe_hits() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->hash_probe_hits;
    }
    return n;
  }
  uint64_t hash_max_chain() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage && e.stage->hash_max_chain > n) n = e.stage->hash_max_chain;
    }
    return n;
  }
  uint64_t hash_table_bytes() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->hash_table_bytes;
    }
    return n;
  }
  uint64_t hash_resizes() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->hash_resizes;
    }
    return n;
  }
  uint64_t hash_probe_len_max() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage && e.stage->hash_probe_len_max > n) {
        n = e.stage->hash_probe_len_max;
      }
    }
    return n;
  }
  uint64_t columnar_bytes() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->columnar_bytes;
    }
    return n;
  }
  uint64_t spill_bytes_written() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->spill_bytes_written;
    }
    return n;
  }
  uint64_t spill_bytes_read() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->spill_bytes_read;
    }
    return n;
  }
  uint64_t spill_runs() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->spill_runs;
    }
    return n;
  }
  uint64_t spill_merge_passes() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->spill_merge_passes;
    }
    return n;
  }
  uint64_t spill_rowify_avoided() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->spill_rowify_avoided;
    }
    return n;
  }
  uint64_t injected_faults() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->injected_faults;
    }
    return n;
  }
  uint64_t retries() const {
    uint64_t n = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) n += e.stage->retries;
    }
    return n;
  }
  double recovery_sim_seconds() const {
    double s = 0;
    for (const auto& e : entries) {
      if (e.owns_stage) s += e.stage->recovery_sim_seconds;
    }
    return s;
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

std::string StatsSuffix(const NodeStats& ns) {
  if (ns.empty()) return "  [no stages recorded]";
  if (ns.fused_only()) {
    // Mid-chain operator of a fused stage: it has per-transform row counts
    // but no stage boundary (no shuffle, no materialization) of its own.
    std::ostringstream os;
    os << "  [rows=" << ns.rows_out() << " fused]";
    return os.str();
  }
  std::ostringstream os;
  os << "  [rows=" << ns.rows_out()
     << " shuffle=" << FormatBytes(ns.shuffle_bytes())
     << " mode=" << ns.movements()
     << " straggler=" << FormatDouble(ns.straggler(), 2) << "x";
  if (const std::vector<uint64_t>* work = ns.dominant_work()) {
    LoadSummary ls = SummarizeLoads(*work);
    os << " work(p50/p95/max)=" << FormatBytes(ls.p50) << "/"
       << FormatBytes(ls.p95) << "/" << FormatBytes(ls.max);
  }
  if (ns.heavy_keys() > 0) os << " heavy_keys=" << ns.heavy_keys();
  if (ns.hash_build_rows() > 0 || ns.hash_probe_hits() > 0) {
    os << " ht(build=" << ns.hash_build_rows()
       << " hits=" << ns.hash_probe_hits()
       << " chain=" << ns.hash_max_chain() << ")";
  }
  if (ns.hash_table_bytes() > 0) {
    os << " flat(tbl=" << FormatBytes(ns.hash_table_bytes())
       << " resizes=" << ns.hash_resizes()
       << " probe=" << ns.hash_probe_len_max() << ")";
  }
  if (ns.key_encode_bytes() > 0) {
    os << " key_bytes=" << FormatBytes(ns.key_encode_bytes());
  }
  if (ns.columnar_bytes() > 0) {
    os << " col(blocks=" << FormatBytes(ns.columnar_bytes()) << ")";
  }
  if (ns.spill_bytes_written() > 0) {
    os << " spill(w=" << FormatBytes(ns.spill_bytes_written())
       << " r=" << FormatBytes(ns.spill_bytes_read())
       << " runs=" << ns.spill_runs() << " merges=" << ns.spill_merge_passes();
    if (ns.spill_rowify_avoided() > 0) {
      os << " rowify_avoided=" << ns.spill_rowify_avoided();
    }
    os << ")";
  }
  if (ns.bytes_avoided() > 0) {
    os << " avoided=" << FormatBytes(ns.bytes_avoided());
  }
  if (ns.injected_faults() > 0) {
    os << " faults=" << ns.injected_faults() << " retries=" << ns.retries()
       << " recovery=" << FormatDouble(ns.recovery_sim_seconds(), 3) << "s";
  }
  os << " sim=" << FormatDouble(ns.sim_seconds(), 3) << "s]";
  return os.str();
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
      os << "  " << s->op << "  [rows=" << s->rows_out
         << " shuffle=" << FormatBytes(s->shuffle_bytes)
         << " mode=" << runtime::DataMovementName(s->movement)
         << " straggler=" << FormatDouble(s->ImbalanceFactor(), 2) << "x";
      if (s->injected_faults > 0) {
        os << " faults=" << s->injected_faults << " retries=" << s->retries
           << " recovery=" << FormatDouble(s->recovery_sim_seconds, 3) << "s";
      }
      os << " sim=" << FormatDouble(s->sim_seconds, 3) << "s]\n";
    }
  }

  runtime::StragglerSummary sk = stats.straggler();
  os << "job: stages=" << stats.stages().size();
  if (stats.fused_stages() > 0) {
    os << " fused_stages=" << stats.fused_stages()
       << " avoided=" << FormatBytes(stats.intermediate_bytes_avoided());
  }
  os << " shuffle=" << FormatBytes(stats.total_shuffle_bytes())
     << " max_stage_shuffle=" << FormatBytes(stats.max_stage_shuffle_bytes())
     << " peak_partition=" << FormatBytes(stats.peak_partition_bytes())
     << " max_partition_recv=" << FormatBytes(sk.max_partition_recv_bytes)
     << " max_partition_work=" << FormatBytes(sk.max_partition_work_bytes)
     << " straggler=" << FormatDouble(sk.worst_imbalance, 2) << "x"
     << (sk.worst_stage.empty() ? "" : "@" + sk.worst_stage)
     << " heavy_keys=" << sk.heavy_key_count;
  if (stats.hash_build_rows() > 0 || stats.hash_probe_hits() > 0) {
    os << " ht(build=" << stats.hash_build_rows()
       << " hits=" << stats.hash_probe_hits()
       << " chain=" << stats.hash_max_chain() << ")";
  }
  if (stats.hash_table_bytes() > 0) {
    os << " flat(tbl=" << FormatBytes(stats.hash_table_bytes())
       << " resizes=" << stats.hash_resizes()
       << " probe=" << stats.hash_probe_len_max() << ")";
  }
  if (stats.key_encode_bytes() > 0) {
    os << " key_bytes=" << FormatBytes(stats.key_encode_bytes());
  }
  if (stats.columnar_bytes() > 0) {
    os << " col(blocks=" << FormatBytes(stats.columnar_bytes()) << ")";
  }
  if (stats.spill_bytes_written() > 0) {
    os << " spill(w=" << FormatBytes(stats.spill_bytes_written())
       << " r=" << FormatBytes(stats.spill_bytes_read())
       << " runs=" << stats.spill_runs()
       << " merges=" << stats.spill_merge_passes();
    if (stats.spill_rowify_avoided() > 0) {
      os << " rowify_avoided=" << stats.spill_rowify_avoided();
    }
    os << ")";
  }
  if (stats.injected_faults() > 0) {
    os << " injected_faults=" << stats.injected_faults()
       << " retries=" << stats.retries()
       << " recovery=" << FormatDouble(stats.recovery_sim_seconds(), 3) << "s";
  }
  os << " sim=" << FormatDouble(stats.sim_seconds(), 3) << "s\n";
  return os.str();
}

}  // namespace obs
}  // namespace trance
