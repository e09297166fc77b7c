#include "plan/printer.h"

#include <sstream>

#include "nrc/printer.h"
#include "util/strings.h"

namespace trance {
namespace plan {

std::string NodeLabel(const PlanPtr& p) {
  std::ostringstream os;
  switch (p->kind()) {
    case PlanNode::Kind::kScan:
      os << "Scan(" << p->relation() << ")";
      break;
    case PlanNode::Kind::kSelect:
      os << "Select[" << nrc::PrintExpr(p->cond()) << "]";
      break;
    case PlanNode::Kind::kOuterSelect:
      os << "OuterSelect[" << nrc::PrintExpr(p->cond()) << " keep "
         << Join(p->keep_cols(), ",") << "]";
      break;
    case PlanNode::Kind::kProject:
    case PlanNode::Kind::kExtend: {
      std::vector<std::string> parts;
      for (const auto& c : p->columns()) {
        parts.push_back(c.name + " := " + nrc::PrintExpr(c.expr));
      }
      os << (p->kind() == PlanNode::Kind::kProject ? "Project[" : "Extend[")
         << Join(parts, ", ") << "]";
      break;
    }
    case PlanNode::Kind::kJoin:
      os << (p->outer() ? "OuterJoin[" : "Join[") << Join(p->left_keys(), ",")
         << " = " << Join(p->right_keys(), ",") << "]";
      break;
    case PlanNode::Kind::kUnnest:
      os << (p->outer() ? "OuterUnnest[" : "Unnest[") << p->bag_col() << " as "
         << p->alias() << "]";
      break;
    case PlanNode::Kind::kAddIndex:
      os << "AddIndex[" << p->id_attr() << "]";
      break;
    case PlanNode::Kind::kNest:
      os << (p->agg() == NestAgg::kSum ? "Nest+[" : "NestU[")
         << Join(p->keys(), ",") << " ; " << Join(p->values(), ",");
      if (p->agg() == NestAgg::kBagUnion) os << " -> " << p->out_attr();
      os << "]";
      break;
    case PlanNode::Kind::kDedup:
      os << "Dedup";
      break;
    case PlanNode::Kind::kUnionAll:
      os << "UnionAll";
      break;
    case PlanNode::Kind::kCoGroup:
      os << "CoGroup[" << Join(p->left_keys(), ",") << " = "
         << Join(p->right_keys(), ",") << " ; " << Join(p->values(), ",")
         << " -> " << p->out_attr() << "]";
      break;
    case PlanNode::Kind::kBagToDict:
      os << "BagToDict[" << p->label_col() << "]";
      break;
  }
  return os.str();
}

namespace {

void Print(const PlanPtr& p, int depth, std::ostringstream* os) {
  std::string pad(static_cast<size_t>(depth) * 2, ' ');
  *os << pad << NodeLabel(p) << "\n";
  for (size_t i = 0; i < p->num_children(); ++i) {
    Print(p->child(i), depth + 1, os);
  }
}

}  // namespace

std::string PrintPlan(const PlanPtr& plan) {
  std::ostringstream os;
  Print(plan, 0, &os);
  return os.str();
}

}  // namespace plan
}  // namespace trance
