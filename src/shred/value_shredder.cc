#include "shred/value_shredder.h"

#include <map>
#include <unordered_map>

namespace trance {
namespace shred {

using nrc::Type;
using nrc::TypePtr;
using nrc::Value;

namespace {

class Shredder {
 public:
  explicit Shredder(int64_t seed) : next_id_(seed) {}

  StatusOr<Value> ShredBag(const Value& bag, const TypePtr& elem,
                           const std::string& path) {
    if (!bag.is_bag()) {
      return Status::TypeError("ShredBag over non-bag value");
    }
    std::vector<Value> out;
    out.reserve(bag.AsBag().elems.size());
    for (const auto& t : bag.AsBag().elems) {
      TRANCE_ASSIGN_OR_RETURN(Value flat, ShredElem(t, elem, path));
      out.push_back(std::move(flat));
    }
    return Value::Bag(std::move(out));
  }

  std::map<std::string, std::vector<Value>>& dict_rows() { return dicts_; }

 private:
  StatusOr<Value> ShredElem(const Value& t, const TypePtr& elem,
                            const std::string& path) {
    if (!elem->is_tuple()) return t;  // scalar element
    if (!t.is_tuple()) return Status::TypeError("expected tuple value");
    nrc::TupleValue out;
    for (const auto& f : elem->fields()) {
      TRANCE_ASSIGN_OR_RETURN(Value fv, t.Field(f.name));
      if (!f.type->is_bag()) {
        out.fields.emplace_back(f.name, std::move(fv));
        continue;
      }
      // Mint a unique label for this inner bag and append its (shredded)
      // elements to the dictionary at this path.
      std::string sub_path = path.empty() ? f.name : path + "_" + f.name;
      Value label =
          Value::Label({{"@" + sub_path, Value::Int(next_id_++)}});
      TRANCE_ASSIGN_OR_RETURN(Value flat_inner,
                              ShredBag(fv, f.type->element(), sub_path));
      auto& rows = dicts_[sub_path];
      for (const auto& inner : flat_inner.AsBag().elems) {
        nrc::TupleValue row;
        row.fields.emplace_back("label", label);
        if (inner.is_tuple()) {
          for (const auto& [n, v] : inner.AsTuple().fields) {
            row.fields.emplace_back(n, v);
          }
        } else {
          row.fields.emplace_back("_value", inner);
        }
        rows.push_back(Value::Tuple(std::move(row)));
      }
      out.fields.emplace_back(f.name, std::move(label));
    }
    return Value::Tuple(std::move(out));
  }

  int64_t next_id_;
  std::map<std::string, std::vector<Value>> dicts_;
};

/// Index of a relational dictionary: label -> flat element tuples.
using DictIndex =
    std::unordered_map<Value, std::vector<Value>, nrc::ValueHash,
                       nrc::ValueEq>;

StatusOr<DictIndex> IndexDict(const Value& relational) {
  DictIndex idx;
  if (!relational.is_bag()) {
    return Status::TypeError("dictionary is not a bag");
  }
  for (const auto& row : relational.AsBag().elems) {
    TRANCE_ASSIGN_OR_RETURN(Value label, row.Field("label"));
    nrc::TupleValue rest;
    for (const auto& [n, v] : row.AsTuple().fields) {
      if (n != "label") rest.fields.emplace_back(n, v);
    }
    Value elem = rest.fields.size() == 1 && rest.fields[0].first == "_value"
                     ? rest.fields[0].second
                     : Value::Tuple(std::move(rest));
    idx[label].push_back(std::move(elem));
  }
  return idx;
}

class Unshredder {
 public:
  Status Index(const ShreddedValue& s) {
    for (const auto& [path, dict] : s.dicts) {
      TRANCE_ASSIGN_OR_RETURN(DictIndex idx, IndexDict(dict));
      index_[path] = std::move(idx);
    }
    return Status::OK();
  }

  StatusOr<Value> RebuildBag(const Value& flat_bag, const TypePtr& elem,
                             const std::string& path) {
    if (!flat_bag.is_bag()) {
      return Status::TypeError("unshred over non-bag value");
    }
    std::vector<Value> out;
    out.reserve(flat_bag.AsBag().elems.size());
    for (const auto& t : flat_bag.AsBag().elems) {
      TRANCE_ASSIGN_OR_RETURN(Value v, RebuildElem(t, elem, path));
      out.push_back(std::move(v));
    }
    return Value::Bag(std::move(out));
  }

 private:
  StatusOr<Value> RebuildElem(const Value& t, const TypePtr& elem,
                              const std::string& path) {
    if (!elem->is_tuple()) return t;
    nrc::TupleValue out;
    for (const auto& f : elem->fields()) {
      TRANCE_ASSIGN_OR_RETURN(Value fv, t.Field(f.name));
      if (!f.type->is_bag()) {
        out.fields.emplace_back(f.name, std::move(fv));
        continue;
      }
      std::string sub_path = path.empty() ? f.name : path + "_" + f.name;
      auto dict = index_.find(sub_path);
      if (dict == index_.end()) {
        return Status::KeyError("no dictionary for path " + sub_path);
      }
      std::vector<Value> members;
      auto hit = dict->second.find(fv);
      if (hit != dict->second.end()) members = hit->second;
      TRANCE_ASSIGN_OR_RETURN(
          Value rebuilt,
          RebuildBag(Value::Bag(std::move(members)), f.type->element(),
                     sub_path));
      out.fields.emplace_back(f.name, std::move(rebuilt));
    }
    return Value::Tuple(std::move(out));
  }

  std::map<std::string, DictIndex> index_;
};

}  // namespace

StatusOr<ShreddedValue> ShredValue(const Value& bag, const TypePtr& bag_type,
                                   int64_t label_seed) {
  if (bag_type == nullptr || !bag_type->is_bag()) {
    return Status::Invalid("ShredValue requires a bag type");
  }
  Shredder s(label_seed);
  TRANCE_ASSIGN_OR_RETURN(Value flat,
                          s.ShredBag(bag, bag_type->element(), ""));
  ShreddedValue out;
  out.flat = std::move(flat);
  TRANCE_ASSIGN_OR_RETURN(std::vector<DictEntry> walk,
                          DictTreeWalk(bag_type));
  for (const auto& entry : walk) {
    auto it = s.dict_rows().find(entry.path);
    out.dicts.emplace_back(entry.path,
                           it == s.dict_rows().end()
                               ? Value::EmptyBag()
                               : Value::Bag(std::move(it->second)));
  }
  return out;
}

int64_t InputLabelSeed(size_t input_index) {
  return static_cast<int64_t>(input_index) * 1000000;
}

StatusOr<Value> UnshredValue(const ShreddedValue& shredded,
                             const TypePtr& bag_type) {
  if (bag_type == nullptr || !bag_type->is_bag()) {
    return Status::Invalid("UnshredValue requires a bag type");
  }
  Unshredder u;
  TRANCE_RETURN_NOT_OK(u.Index(shredded));
  return u.RebuildBag(shredded.flat, bag_type->element(), "");
}

StatusOr<Value> RelationalToPairDict(const Value& relational,
                                     const TypePtr& flat_elem) {
  TRANCE_ASSIGN_OR_RETURN(DictIndex idx, IndexDict(relational));
  (void)flat_elem;
  std::vector<Value> out;
  out.reserve(idx.size());
  for (auto& [label, members] : idx) {
    out.push_back(Value::Tuple(
        {{"label", label}, {"value", Value::Bag(members)}}));
  }
  return Value::Bag(std::move(out));
}

StatusOr<Value> PairToRelationalDict(const Value& pairs,
                                     const TypePtr& flat_elem) {
  if (!pairs.is_bag()) return Status::TypeError("pair dict is not a bag");
  std::vector<Value> out;
  for (const auto& p : pairs.AsBag().elems) {
    TRANCE_ASSIGN_OR_RETURN(Value label, p.Field("label"));
    TRANCE_ASSIGN_OR_RETURN(Value value, p.Field("value"));
    if (!value.is_bag()) return Status::TypeError("pair value is not a bag");
    for (const auto& elem : value.AsBag().elems) {
      nrc::TupleValue row;
      row.fields.emplace_back("label", label);
      if (flat_elem->is_tuple()) {
        if (!elem.is_tuple()) return Status::TypeError("expected tuple");
        for (const auto& [n, v] : elem.AsTuple().fields) {
          row.fields.emplace_back(n, v);
        }
      } else {
        row.fields.emplace_back("_value", elem);
      }
      out.push_back(Value::Tuple(std::move(row)));
    }
  }
  return Value::Bag(std::move(out));
}

}  // namespace shred
}  // namespace trance
