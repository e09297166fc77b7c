#include "shred/shredded_type.h"

namespace trance {
namespace shred {

using nrc::Type;
using nrc::TypePtr;

StatusOr<ShreddedType> ShredType(const TypePtr& type) {
  if (type == nullptr) return Status::Invalid("ShredType(null)");
  switch (type->kind()) {
    case Type::Kind::kScalar:
    case Type::Kind::kLabel:
      return ShreddedType{type, Type::Tuple({})};
    case Type::Kind::kBag: {
      TRANCE_ASSIGN_OR_RETURN(ShreddedType inner, ShredType(type->element()));
      return ShreddedType{Type::Bag(inner.flat), inner.dict_tree};
    }
    case Type::Kind::kTuple: {
      std::vector<nrc::Field> flat_fields;
      std::vector<nrc::Field> dict_fields;
      for (const auto& f : type->fields()) {
        if (f.type->is_bag()) {
          TRANCE_ASSIGN_OR_RETURN(ShreddedType sub, ShredType(f.type));
          flat_fields.push_back({f.name, Type::Label()});
          dict_fields.push_back({f.name + "fun", Type::Dict(sub.flat)});
          dict_fields.push_back(
              {f.name + "child", Type::Bag(sub.dict_tree)});
        } else {
          TRANCE_ASSIGN_OR_RETURN(ShreddedType sub, ShredType(f.type));
          flat_fields.push_back({f.name, sub.flat});
        }
      }
      return ShreddedType{Type::Tuple(std::move(flat_fields)),
                          Type::Tuple(std::move(dict_fields))};
    }
    case Type::Kind::kDict:
      return Status::Invalid("cannot shred a dictionary type");
  }
  return Status::Internal("unhandled type in ShredType");
}

namespace {
Status Walk(const TypePtr& elem, const std::string& parent,
            std::vector<DictEntry>* out) {
  if (!elem->is_tuple()) return Status::OK();
  for (const auto& f : elem->fields()) {
    if (!f.type->is_bag()) continue;
    TRANCE_ASSIGN_OR_RETURN(ShreddedType sub, ShredType(f.type->element()));
    DictEntry entry;
    entry.attr = f.name;
    entry.parent_path = parent;
    entry.path = parent.empty() ? f.name : parent + "_" + f.name;
    entry.flat_elem = sub.flat;
    std::string path = entry.path;
    out->push_back(std::move(entry));
    TRANCE_RETURN_NOT_OK(Walk(f.type->element(), path, out));
  }
  return Status::OK();
}
}  // namespace

StatusOr<std::vector<DictEntry>> DictTreeWalk(const TypePtr& bag_type) {
  if (bag_type == nullptr || !bag_type->is_bag()) {
    return Status::Invalid("DictTreeWalk over non-bag type");
  }
  std::vector<DictEntry> out;
  TRANCE_RETURN_NOT_OK(Walk(bag_type->element(), "", &out));
  return out;
}

StatusOr<TypePtr> RelationalDictType(const TypePtr& flat_elem) {
  std::vector<nrc::Field> fields;
  fields.push_back({"label", Type::Label()});
  if (flat_elem->is_tuple()) {
    for (const auto& f : flat_elem->fields()) {
      if (f.name == "label") {
        return Status::Invalid(
            "element attribute 'label' collides with the dictionary key");
      }
      fields.push_back(f);
    }
  } else {
    fields.push_back({"_value", flat_elem});
  }
  return Type::Bag(Type::Tuple(std::move(fields)));
}

std::string FlatInputName(const std::string& name) { return name + "_F"; }

std::string DictInputName(const std::string& name, const std::string& path) {
  return name + "_D_" + path;
}

}  // namespace shred
}  // namespace trance
