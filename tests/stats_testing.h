// The one stats-equality check of the invariance tests (thread counts,
// fusion on/off, recovered faults, spilling): two runs of one workload must
// agree on every exact and sim statistic of the statistic table
// (runtime/stats.h), in the job totals and stage by stage, plus each
// stage's op, scope, movement, partition histograms and fused transforms.
// Wall-clock fields are never compared.
#ifndef TRANCE_TESTS_STATS_TESTING_H_
#define TRANCE_TESTS_STATS_TESTING_H_

#include <gtest/gtest.h>

#include <string>

#include "runtime/stats.h"

namespace trance {
namespace stats_testing {

/// Every exact and sim table field of `a` and `b`, except those of group
/// `skip`.
inline void ExpectSameStatFields(const runtime::StageStats& a,
                                 const runtime::StageStats& b,
                                 runtime::StatGroup skip) {
  for (const runtime::StatField& f : runtime::kStatFields) {
    if (f.cls == runtime::StatClass::kWall) continue;
    if (skip != runtime::StatGroup::kNone && f.group == skip) continue;
    if (f.u64 != nullptr) {
      EXPECT_EQ(a.*f.u64, b.*f.u64) << f.key;
    } else {
      EXPECT_EQ(a.*f.f64, b.*f.f64) << f.key;
    }
  }
}

/// `skip` names a clause group whose fields legitimately differ between the
/// two runs: StatGroup::kFaults for a fault-free versus a recovered run,
/// StatGroup::kSpill for an uncapped versus a spilling run.
inline void ExpectSameStats(
    const runtime::JobStats& a, const runtime::JobStats& b,
    runtime::StatGroup skip = runtime::StatGroup::kNone) {
  EXPECT_EQ(a.max_stage_shuffle_bytes(), b.max_stage_shuffle_bytes());
  EXPECT_EQ(a.peak_partition_bytes(), b.peak_partition_bytes());
  EXPECT_EQ(a.fused_stages(), b.fused_stages());
  {
    SCOPED_TRACE("job totals");
    ExpectSameStatFields(a.totals(), b.totals(), skip);
  }
  ASSERT_EQ(a.stages().size(), b.stages().size());
  for (size_t i = 0; i < a.stages().size(); ++i) {
    const runtime::StageStats& sa = a.stages()[i];
    const runtime::StageStats& sb = b.stages()[i];
    SCOPED_TRACE("stage " + std::to_string(i) + " (" + sa.op + ")");
    EXPECT_EQ(sa.op, sb.op);
    EXPECT_EQ(sa.scope, sb.scope);
    EXPECT_EQ(sa.movement, sb.movement);
    EXPECT_EQ(sa.partition_send_bytes, sb.partition_send_bytes);
    EXPECT_EQ(sa.partition_recv_bytes, sb.partition_recv_bytes);
    EXPECT_EQ(sa.partition_work_bytes, sb.partition_work_bytes);
    ExpectSameStatFields(sa, sb, skip);
    ASSERT_EQ(sa.fused_transforms.size(), sb.fused_transforms.size());
    for (size_t t = 0; t < sa.fused_transforms.size(); ++t) {
      EXPECT_EQ(sa.fused_transforms[t].op, sb.fused_transforms[t].op);
      EXPECT_EQ(sa.fused_transforms[t].scope, sb.fused_transforms[t].scope);
      EXPECT_EQ(sa.fused_transforms[t].rows_out,
                sb.fused_transforms[t].rows_out);
    }
  }
}

/// Whether stage `s` ran over a heavy skew component: a narrow chain's
/// `<op>.h` stage or a skew-aware join's `<name>.heavy` broadcast.
inline bool IsHeavyStage(const runtime::StageStats& s) {
  return s.op.ends_with(".h") || s.op.ends_with(".heavy");
}

}  // namespace stats_testing
}  // namespace trance

#endif  // TRANCE_TESTS_STATS_TESTING_H_
