// Rendering of algebraic plans for debugging and tests (operator tree with
// the paper's sigma/pi/join/mu/Gamma vocabulary).
#ifndef TRANCE_PLAN_PRINTER_H_
#define TRANCE_PLAN_PRINTER_H_

#include <string>

#include "plan/plan.h"

namespace trance {
namespace plan {

/// One-line label of a single operator node (no children, no newline);
/// shared by the tree printer and the EXPLAIN ANALYZE report.
std::string NodeLabel(const PlanPtr& plan);

std::string PrintPlan(const PlanPtr& plan);

}  // namespace plan
}  // namespace trance

#endif  // TRANCE_PLAN_PRINTER_H_
