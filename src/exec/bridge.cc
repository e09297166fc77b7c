#include "exec/bridge.h"

namespace trance {
namespace exec {

using nrc::Type;
using nrc::TypePtr;
using nrc::Value;
using runtime::Field;
using runtime::Row;
using runtime::Schema;

StatusOr<Field> ValueToField(const Value& v, const TypePtr& type) {
  if (type == nullptr) return Status::Invalid("ValueToField: null type");
  switch (type->kind()) {
    case Type::Kind::kScalar:
      switch (type->scalar_kind()) {
        case nrc::ScalarKind::kInt:
        case nrc::ScalarKind::kDate:
          if (!v.is_int()) return Status::TypeError("expected int value");
          return Field::Int(v.AsInt());
        case nrc::ScalarKind::kReal:
          if (!v.is_real() && !v.is_int()) {
            return Status::TypeError("expected real value");
          }
          return Field::Real(v.AsNumber());
        case nrc::ScalarKind::kString:
          if (!v.is_string()) return Status::TypeError("expected string");
          return Field::Str(v.AsString());
        case nrc::ScalarKind::kBool:
          if (!v.is_bool()) return Status::TypeError("expected bool");
          return Field::Bool(v.AsBool());
      }
      return Status::Internal("bad scalar kind");
    case Type::Kind::kLabel: {
      if (!v.is_label()) return Status::TypeError("expected label value");
      std::vector<std::pair<std::string, Field>> params;
      for (const auto& [n, pv] : v.AsLabel().params) {
        // Label params are flat values; convert by dynamic type.
        if (pv.is_int()) {
          params.emplace_back(n, Field::Int(pv.AsInt()));
        } else if (pv.is_real()) {
          params.emplace_back(n, Field::Real(pv.AsReal()));
        } else if (pv.is_string()) {
          params.emplace_back(n, Field::Str(pv.AsString()));
        } else if (pv.is_bool()) {
          params.emplace_back(n, Field::Bool(pv.AsBool()));
        } else if (pv.is_label()) {
          TRANCE_ASSIGN_OR_RETURN(Field lf, ValueToField(pv, Type::Label()));
          params.emplace_back(n, lf);
        } else {
          return Status::TypeError("label parameter is not flat");
        }
      }
      return runtime::MakeLabel(std::move(params));
    }
    case Type::Kind::kBag:
    case Type::Kind::kDict: {
      if (!v.is_bag()) return Status::TypeError("expected bag value");
      TRANCE_ASSIGN_OR_RETURN(Schema inner,
                              Schema::FromBagType(
                                  type->is_dict()
                                      ? nrc::Type::Bag(type->element()->element())
                                      : type));
      TRANCE_ASSIGN_OR_RETURN(std::vector<Row> rows, ValueToRows(v, inner));
      return Field::Bag(std::move(rows));
    }
    case Type::Kind::kTuple:
      return Status::TypeError("tuple cannot be a field (wrap in bag)");
  }
  return Status::Internal("unhandled type in ValueToField");
}

StatusOr<Row> TupleToRow(const Value& tuple, const Schema& schema) {
  Row row;
  row.fields.reserve(schema.size());
  if (schema.size() == 1 && schema.col(0).name == "_value" &&
      !tuple.is_tuple()) {
    TRANCE_ASSIGN_OR_RETURN(Field f, ValueToField(tuple, schema.col(0).type));
    row.fields.push_back(std::move(f));
    return row;
  }
  if (!tuple.is_tuple()) {
    return Status::TypeError("expected tuple value: " + tuple.ToString());
  }
  for (const auto& col : schema.columns()) {
    TRANCE_ASSIGN_OR_RETURN(Value fv, tuple.Field(col.name));
    TRANCE_ASSIGN_OR_RETURN(Field f, ValueToField(fv, col.type));
    row.fields.push_back(std::move(f));
  }
  return row;
}

StatusOr<std::vector<Row>> ValueToRows(const Value& bag,
                                       const Schema& schema) {
  if (!bag.is_bag()) return Status::TypeError("ValueToRows on non-bag");
  std::vector<Row> rows;
  rows.reserve(bag.AsBag().elems.size());
  for (const auto& t : bag.AsBag().elems) {
    TRANCE_ASSIGN_OR_RETURN(Row r, TupleToRow(t, schema));
    rows.push_back(std::move(r));
  }
  return rows;
}

StatusOr<Value> FieldToValue(const Field& f, const TypePtr& type) {
  if (f.is_null()) {
    return Status::Invalid("NULL field surfaced to a value conversion");
  }
  if (type != nullptr && type->is_bag()) {
    if (!f.is_bag()) return Status::TypeError("expected bag field");
    TRANCE_ASSIGN_OR_RETURN(Schema inner, Schema::FromBagType(type));
    return RowsToValue(f.AsBag()->rows(), inner);
  }
  if (f.is_int()) {
    return Value::Int(f.AsInt());
  }
  if (f.is_real()) return Value::Real(f.AsReal());
  if (f.is_string()) return Value::Str(f.AsString());
  if (f.is_bool()) return Value::Bool(f.AsBool());
  if (f.is_label()) {
    std::vector<std::pair<std::string, Value>> params;
    for (const auto& [n, pf] : f.AsLabel()->params()) {
      TRANCE_ASSIGN_OR_RETURN(Value pv, FieldToValue(pf, nullptr));
      params.emplace_back(n, pv);
    }
    return Value::Label(std::move(params));
  }
  if (f.is_bag()) {
    return Status::Invalid("bag field without a bag type in conversion");
  }
  return Status::Internal("unhandled field in FieldToValue");
}

StatusOr<Value> RowsToValue(const std::vector<Row>& rows,
                            const Schema& schema) {
  std::vector<Value> elems;
  elems.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.fields.size() != schema.size()) {
      return Status::Internal("row width does not match schema");
    }
    if (schema.size() == 1 && schema.col(0).name == "_value" &&
        !schema.col(0).type->is_tuple()) {
      TRANCE_ASSIGN_OR_RETURN(Value v,
                              FieldToValue(row.fields[0], schema.col(0).type));
      elems.push_back(std::move(v));
      continue;
    }
    nrc::TupleValue t;
    for (size_t i = 0; i < schema.size(); ++i) {
      TRANCE_ASSIGN_OR_RETURN(
          Value v, FieldToValue(row.fields[i], schema.col(i).type));
      t.fields.emplace_back(schema.col(i).name, std::move(v));
    }
    elems.push_back(Value::Tuple(std::move(t)));
  }
  return Value::Bag(std::move(elems));
}

}  // namespace exec
}  // namespace trance
