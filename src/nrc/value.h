// Nested runtime values for the NRC reference interpreter, the correctness
// oracle for every compilation route.
//
// Values include the NRC^{Lbl+lambda} citizens: labels (tuples of captured
// flat values with structural equality) and closures (symbolic dictionaries,
// i.e. lambda terms over labels).
//
// Label semantics: a label is identified by its named captured parameters.
// Following the paper's refinement that NewLabel retains only the relevant
// attributes, a NewLabel over a *single, label-valued* parameter collapses to
// that label. This makes the labels flowing through a shredded query line up
// with the labels minted when the input was shredded, which is what makes
// unshredding joins (and domain-eliminated dictionaries) match up.
#ifndef TRANCE_NRC_VALUE_H_
#define TRANCE_NRC_VALUE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "nrc/expr.h"
#include "nrc/type.h"
#include "util/status.h"

namespace trance {
namespace nrc {

class Value;

/// Named-field tuple.
struct TupleValue {
  std::vector<std::pair<std::string, Value>> fields;
};

/// Bag of values (multiset; order is not semantically meaningful).
struct BagValue {
  std::vector<Value> elems;
};

/// Label: named captured flat parameters, structural identity.
struct LabelValue {
  std::vector<std::pair<std::string, Value>> params;
};

/// Interpreter environment: immutable chain of bindings.
class Env;
using EnvPtr = std::shared_ptr<const Env>;

/// Symbolic dictionary: a lambda over labels, closed over an environment.
struct ClosureValue {
  std::string var;
  ExprPtr body;
  EnvPtr env;
};

/// A nested NRC value.
class Value {
 public:
  using Repr =
      std::variant<int64_t, double, std::string, bool,
                   std::shared_ptr<const TupleValue>,
                   std::shared_ptr<const BagValue>,
                   std::shared_ptr<const LabelValue>,
                   std::shared_ptr<const ClosureValue>>;

  Value() : repr_(int64_t{0}) {}

  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Real(double v) { return Value(Repr(v)); }
  static Value Str(std::string v) { return Value(Repr(std::move(v))); }
  static Value Bool(bool v) { return Value(Repr(v)); }
  static Value Tuple(TupleValue t) {
    return Value(Repr(std::make_shared<const TupleValue>(std::move(t))));
  }
  static Value Tuple(std::vector<std::pair<std::string, Value>> fields) {
    return Tuple(TupleValue{std::move(fields)});
  }
  static Value Bag(BagValue b) {
    return Value(Repr(std::make_shared<const BagValue>(std::move(b))));
  }
  static Value Bag(std::vector<Value> elems) {
    return Bag(BagValue{std::move(elems)});
  }
  static Value EmptyBag() { return Bag(BagValue{}); }
  /// Creates a label; applies the single-label collapse rule.
  static Value Label(std::vector<std::pair<std::string, Value>> params);
  static Value Closure(ClosureValue c) {
    return Value(Repr(std::make_shared<const ClosureValue>(std::move(c))));
  }
  static Value FromConst(const ConstValue& c);

  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_real() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }
  bool is_bool() const { return std::holds_alternative<bool>(repr_); }
  bool is_tuple() const {
    return std::holds_alternative<std::shared_ptr<const TupleValue>>(repr_);
  }
  bool is_bag() const {
    return std::holds_alternative<std::shared_ptr<const BagValue>>(repr_);
  }
  bool is_label() const {
    return std::holds_alternative<std::shared_ptr<const LabelValue>>(repr_);
  }
  bool is_closure() const {
    return std::holds_alternative<std::shared_ptr<const ClosureValue>>(repr_);
  }

  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsReal() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  bool AsBool() const { return std::get<bool>(repr_); }
  const TupleValue& AsTuple() const {
    return *std::get<std::shared_ptr<const TupleValue>>(repr_);
  }
  const BagValue& AsBag() const {
    return *std::get<std::shared_ptr<const BagValue>>(repr_);
  }
  const LabelValue& AsLabel() const {
    return *std::get<std::shared_ptr<const LabelValue>>(repr_);
  }
  const ClosureValue& AsClosure() const {
    return *std::get<std::shared_ptr<const ClosureValue>>(repr_);
  }

  /// Numeric coercion: int or real as double.
  double AsNumber() const;

  /// Field lookup in a tuple value; KeyError if absent.
  StatusOr<Value> Field(const std::string& name) const;
  /// Field lookup that aborts on failure (internal use on checked paths).
  const Value& FieldOrDie(const std::string& name) const;

  std::string ToString() const;
  uint64_t Hash() const;

  friend bool operator==(const Value& a, const Value& b);
  /// Total order for canonicalizing bags (multiset comparison in tests).
  friend bool ValueLess(const Value& a, const Value& b);

 private:
  explicit Value(Repr repr) : repr_(std::move(repr)) {}
  Repr repr_;
};

bool operator==(const Value& a, const Value& b);
inline bool operator!=(const Value& a, const Value& b) { return !(a == b); }
bool ValueLess(const Value& a, const Value& b);

/// Recursive multiset-aware equality: bags compare as multisets at every
/// nesting level. This is the equality the oracle tests use.
bool DeepBagEquals(const Value& a, const Value& b);
/// Canonicalizes a value: recursively sorts all bags.
Value Canonicalize(const Value& v);

/// Multiset-aware equality that snaps reals to ~10 significant digits before
/// comparing: distributed aggregation sums in a different order than the
/// sequential oracle, so totals differ in the last bits.
bool ApproxDeepBagEquals(const Value& a, const Value& b);

/// Immutable environment chain.
class Env {
 public:
  static EnvPtr Empty() { return nullptr; }
  static EnvPtr Bind(EnvPtr parent, std::string name, Value v) {
    return std::make_shared<const Env>(std::move(parent), std::move(name),
                                       std::move(v));
  }

  Env(EnvPtr parent, std::string name, Value v)
      : parent_(std::move(parent)), name_(std::move(name)), v_(std::move(v)) {}

  static const Value* Find(const EnvPtr& env, const std::string& name) {
    for (const Env* e = env.get(); e != nullptr; e = e->parent_.get()) {
      if (e->name_ == name) return &e->v_;
    }
    return nullptr;
  }

 private:
  EnvPtr parent_;
  std::string name_;
  Value v_;
};

struct ValueHash {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a == b; }
};

}  // namespace nrc
}  // namespace trance

#endif  // TRANCE_NRC_VALUE_H_
