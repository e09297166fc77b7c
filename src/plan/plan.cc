#include "plan/plan.h"

namespace trance {
namespace plan {

#define MAKE(kind) std::shared_ptr<PlanNode>(new PlanNode(kind))

PlanPtr PlanNode::Scan(std::string relation) {
  auto n = MAKE(Kind::kScan);
  n->name_ = std::move(relation);
  return n;
}

PlanPtr PlanNode::Select(PlanPtr child, nrc::ExprPtr cond) {
  TRANCE_CHECK(child != nullptr && cond != nullptr, "Select(null)");
  auto n = MAKE(Kind::kSelect);
  n->children_ = {std::move(child)};
  n->cond_ = std::move(cond);
  return n;
}

PlanPtr PlanNode::OuterSelect(PlanPtr child, nrc::ExprPtr cond,
                              std::vector<std::string> keep_cols) {
  TRANCE_CHECK(child != nullptr && cond != nullptr, "OuterSelect(null)");
  auto n = MAKE(Kind::kOuterSelect);
  n->children_ = {std::move(child)};
  n->cond_ = std::move(cond);
  n->values_ = std::move(keep_cols);
  return n;
}

PlanPtr PlanNode::Project(PlanPtr child, std::vector<NamedColumnExpr> cols) {
  TRANCE_CHECK(child != nullptr, "Project(null)");
  auto n = MAKE(Kind::kProject);
  n->children_ = {std::move(child)};
  n->cols_ = std::move(cols);
  return n;
}

PlanPtr PlanNode::Extend(PlanPtr child, std::vector<NamedColumnExpr> cols) {
  TRANCE_CHECK(child != nullptr, "Extend(null)");
  auto n = MAKE(Kind::kExtend);
  n->children_ = {std::move(child)};
  n->cols_ = std::move(cols);
  return n;
}

PlanPtr PlanNode::Join(PlanPtr left, PlanPtr right,
                       std::vector<std::string> left_keys,
                       std::vector<std::string> right_keys, bool outer) {
  TRANCE_CHECK(left != nullptr && right != nullptr, "Join(null)");
  TRANCE_CHECK(left_keys.size() == right_keys.size(), "join key arity");
  auto n = MAKE(Kind::kJoin);
  n->children_ = {std::move(left), std::move(right)};
  n->left_keys_ = std::move(left_keys);
  n->right_keys_ = std::move(right_keys);
  n->outer_ = outer;
  return n;
}

PlanPtr PlanNode::Unnest(PlanPtr child, std::string bag_col, std::string alias,
                         bool outer, std::string id_attr) {
  TRANCE_CHECK(child != nullptr, "Unnest(null)");
  auto n = MAKE(Kind::kUnnest);
  n->children_ = {std::move(child)};
  n->bag_col_ = std::move(bag_col);
  n->alias_ = std::move(alias);
  n->outer_ = outer;
  n->alias2_ = std::move(id_attr);
  return n;
}

PlanPtr PlanNode::AddIndex(PlanPtr child, std::string id_attr) {
  TRANCE_CHECK(child != nullptr, "AddIndex(null)");
  auto n = MAKE(Kind::kAddIndex);
  n->children_ = {std::move(child)};
  n->name_ = std::move(id_attr);
  return n;
}

PlanPtr PlanNode::Nest(PlanPtr child, NestAgg agg,
                       std::vector<std::string> keys,
                       std::vector<std::string> values,
                       std::vector<std::string> value_names,
                       std::string out_attr, std::string indicator) {
  TRANCE_CHECK(child != nullptr, "Nest(null)");
  TRANCE_CHECK(values.size() == value_names.size(), "nest value arity");
  auto n = MAKE(Kind::kNest);
  n->children_ = {std::move(child)};
  n->agg_ = agg;
  n->left_keys_ = std::move(keys);
  n->values_ = std::move(values);
  n->value_names_ = std::move(value_names);
  n->name_ = std::move(out_attr);
  n->alias2_ = std::move(indicator);
  return n;
}

PlanPtr PlanNode::Dedup(PlanPtr child) {
  TRANCE_CHECK(child != nullptr, "Dedup(null)");
  auto n = MAKE(Kind::kDedup);
  n->children_ = {std::move(child)};
  return n;
}

PlanPtr PlanNode::UnionAll(PlanPtr a, PlanPtr b) {
  TRANCE_CHECK(a != nullptr && b != nullptr, "UnionAll(null)");
  auto n = MAKE(Kind::kUnionAll);
  n->children_ = {std::move(a), std::move(b)};
  return n;
}

PlanPtr PlanNode::CoGroup(PlanPtr left, PlanPtr right,
                          std::vector<std::string> left_keys,
                          std::vector<std::string> right_keys,
                          std::vector<std::string> values,
                          std::vector<std::string> value_names,
                          std::string out_attr) {
  TRANCE_CHECK(left != nullptr && right != nullptr, "CoGroup(null)");
  auto n = MAKE(Kind::kCoGroup);
  n->children_ = {std::move(left), std::move(right)};
  n->left_keys_ = std::move(left_keys);
  n->right_keys_ = std::move(right_keys);
  n->values_ = std::move(values);
  n->value_names_ = std::move(value_names);
  n->name_ = std::move(out_attr);
  return n;
}

PlanPtr PlanNode::BagToDict(PlanPtr child, std::string label_col) {
  TRANCE_CHECK(child != nullptr, "BagToDict(null)");
  auto n = MAKE(Kind::kBagToDict);
  n->children_ = {std::move(child)};
  n->name_ = std::move(label_col);
  return n;
}

PlanPtr PlanNode::WithChildren(const PlanPtr& p, std::vector<PlanPtr> kids) {
  TRANCE_CHECK(kids.size() == p->children_.size(), "WithChildren arity");
  if (kids.empty()) return p;
  for (const auto& k : kids) TRANCE_CHECK(k != nullptr, "WithChildren(null)");
  auto n = std::shared_ptr<PlanNode>(new PlanNode(*p));
  n->children_ = std::move(kids);
  return n;
}

#undef MAKE

}  // namespace plan
}  // namespace trance
