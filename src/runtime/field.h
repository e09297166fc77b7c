// Runtime data representation for the distributed dataflow simulator.
//
// A Row is a flat vector of Fields. Fields are scalars, NULL (introduced by
// outer joins / outer unnests), labels (shredded pipeline), or *local nested
// bags* (standard pipeline): like Spark Datasets, a distributed collection is
// partitioned only at the granularity of top-level rows, and any bag-valued
// field lives entirely inside one partition — which is precisely the
// scalability limitation the paper's shredding attacks.
//
// Memory accounting (DeepSize) includes nested bag contents, so a partition
// holding few rows with enormous inner collections correctly counts against
// the simulated worker memory cap. Labels and bags are immutable and
// shared: each carries its deep size (and a label its hash), computed once
// at construction, so sizing or hashing a nested cell reads a stored value
// instead of walking its members.
#ifndef TRANCE_RUNTIME_FIELD_H_
#define TRANCE_RUNTIME_FIELD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/hash.h"
#include "util/status.h"

namespace trance {
namespace runtime {

class Field;

/// A flat record; the unit of distribution.
struct Row {
  std::vector<Field> fields;

  Row() = default;
  explicit Row(std::vector<Field> f) : fields(std::move(f)) {}
};

class RtLabel;
using LabelPtr = std::shared_ptr<const RtLabel>;

/// Runtime bag: an immutable multiset of rows that knows its deep size.
/// Iterable like the row vector it wraps.
class RtBag {
 public:
  explicit RtBag(std::vector<Row> rows);

  const std::vector<Row>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const Row& operator[](size_t i) const { return rows_[i]; }
  std::vector<Row>::const_iterator begin() const { return rows_.begin(); }
  std::vector<Row>::const_iterator end() const { return rows_.end(); }

  /// Field::DeepSize of the bag: 32 plus each member's RowDeepSize, computed
  /// once at construction.
  uint64_t DeepSize() const { return deep_size_; }

 private:
  std::vector<Row> rows_;
  uint64_t deep_size_;
};
using BagPtr = std::shared_ptr<const RtBag>;

/// One cell of a row.
class Field {
 public:
  using Repr = std::variant<std::monostate, int64_t, double, std::string, bool,
                            LabelPtr, BagPtr>;

  Field() : repr_(std::monostate{}) {}  // NULL
  static Field Null() { return Field(); }
  static Field Int(int64_t v) { return Field(Repr(v)); }
  static Field Real(double v) { return Field(Repr(v)); }
  static Field Str(std::string v) { return Field(Repr(std::move(v))); }
  static Field Bool(bool v) { return Field(Repr(v)); }
  /// A label or bag cell always holds an object; NULL is Field::Null().
  static Field Label(LabelPtr l) {
    TRANCE_CHECK(l != nullptr, "Field::Label of a null pointer");
    return Field(Repr(std::move(l)));
  }
  static Field Bag(BagPtr b) {
    TRANCE_CHECK(b != nullptr, "Field::Bag of a null pointer");
    return Field(Repr(std::move(b)));
  }
  static Field Bag(std::vector<Row> rows) {
    return Bag(std::make_shared<const RtBag>(std::move(rows)));
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_real() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }
  bool is_bool() const { return std::holds_alternative<bool>(repr_); }
  bool is_label() const { return std::holds_alternative<LabelPtr>(repr_); }
  bool is_bag() const { return std::holds_alternative<BagPtr>(repr_); }

  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsReal() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  bool AsBool() const { return std::get<bool>(repr_); }
  const LabelPtr& AsLabel() const { return std::get<LabelPtr>(repr_); }
  const BagPtr& AsBag() const { return std::get<BagPtr>(repr_); }
  double AsNumber() const {
    return is_int() ? static_cast<double>(AsInt()) : AsReal();
  }

  /// A bag's hash walks its members; a label's is stored.
  uint64_t Hash() const;
  /// Approximate in-memory footprint in bytes, nested bag and label contents
  /// included; a bag's or label's is computed once at construction.
  uint64_t DeepSize() const;
  std::string ToString() const;

  friend bool operator==(const Field& a, const Field& b);
  friend bool FieldLess(const Field& a, const Field& b);

 private:
  explicit Field(Repr r) : repr_(std::move(r)) {}
  Repr repr_;
};

bool operator==(const Field& a, const Field& b);
inline bool operator!=(const Field& a, const Field& b) { return !(a == b); }
bool FieldLess(const Field& a, const Field& b);

/// Runtime label: named captured flat parameters with structural identity;
/// mirrors nrc::LabelValue (including the single-label collapse rule, applied
/// by MakeLabel). Immutable: its hash and deep size are computed once at
/// construction.
class RtLabel {
 public:
  using Params = std::vector<std::pair<std::string, Field>>;

  explicit RtLabel(Params params);

  const Params& params() const { return params_; }
  uint64_t Hash() const { return hash_; }
  /// Field::DeepSize of the label: 16 plus 8 and the value's DeepSize per
  /// parameter.
  uint64_t DeepSize() const { return deep_size_; }

  friend bool operator==(const RtLabel& a, const RtLabel& b);

 private:
  Params params_;
  uint64_t hash_;
  uint64_t deep_size_;
};

/// Creates a label field; collapses NewLabel over a single label parameter.
Field MakeLabel(std::vector<std::pair<std::string, Field>> params);

uint64_t RowHash(const Row& r);
uint64_t RowHashOn(const Row& r, const std::vector<int>& cols);
bool RowEquals(const Row& a, const Row& b);
uint64_t RowDeepSize(const Row& r);
std::string RowToString(const Row& r);

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_FIELD_H_
