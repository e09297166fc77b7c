// The biomedical end-to-end pipeline E2E (Section 6): five NRC steps over
// the ICGC-shaped inputs, modeled on the driver-gene analysis of [47].
//
//  Step1  flattens all of BN2 with a nested join on each level (BF2 network
//         at level 1, BF3 ontology at level 2), aggregates, and regroups to
//         nested per-sample gene scores — the full-flatten stress test.
//  Step2  joins BN1 copy-number on the first level of Step1's output — the
//         blow-up step where the flattening methods diverge.
//  Step3  joins flat BF1 expression on the first level.
//  Step4  aggregates gene burdens across samples (nested-to-flat).
//  Step5  propagates burdens over the network (flat-to-flat).
// The final output is flat, so the shredded route needs no unshredding.
#ifndef TRANCE_BIOMED_PIPELINE_H_
#define TRANCE_BIOMED_PIPELINE_H_

#include "nrc/expr.h"
#include "util/status.h"

namespace trance {
namespace biomed {

inline constexpr int kNumSteps = 5;

/// The whole pipeline as one five-assignment program over BN2/BN1/BF1-BF3.
nrc::Program E2EProgram();

/// Step `step` (1-based) as a standalone program whose inputs are the base
/// relations plus the previous step's output ("StepK" of its output type).
/// Used by the benchmark harness to time steps individually.
StatusOr<nrc::Program> StepProgram(int step);

}  // namespace biomed
}  // namespace trance

#endif  // TRANCE_BIOMED_PIPELINE_H_
