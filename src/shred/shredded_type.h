// Shredded type derivation (Section 4): T -> (T^F, T^D).
//
// T^F replaces every bag-valued attribute with a Label; T^D is a tuple type
// holding, for each bag-valued attribute a, a dictionary a^fun of type
// Label -> Bag(T^F_a) and a child dictionary tree a^child wrapped in a
// singleton bag (the type system forbids tuples directly inside tuples).
//
// This module also provides the "dictionary walk": the list of dictionary
// paths of a nested type (e.g. COP -> ["corders", "corders_oparts"]) with,
// for each path, the flat element type of the dictionary's bags and the
// relational schema (label column + element fields) used by the runtime's
// dictionary representation.
#ifndef TRANCE_SHRED_SHREDDED_TYPE_H_
#define TRANCE_SHRED_SHREDDED_TYPE_H_

#include <string>
#include <vector>

#include "nrc/type.h"
#include "util/status.h"

namespace trance {
namespace shred {

struct ShreddedType {
  nrc::TypePtr flat;       // T^F
  nrc::TypePtr dict_tree;  // T^D (tuple type; empty tuple for flat T)
};

/// Derives (T^F, T^D) for any NRC type.
StatusOr<ShreddedType> ShredType(const nrc::TypePtr& type);

/// One dictionary of a nested type, in document order (parent before child).
struct DictEntry {
  /// Underscore-joined attribute path, e.g. "corders_oparts".
  std::string path;
  /// The bag-valued attribute's name at its level, e.g. "oparts".
  std::string attr;
  /// Path of the parent dictionary ("" for top-level attributes).
  std::string parent_path;
  /// Flat element type of the dictionary's bags (tuple or scalar), i.e.
  /// T^F_a's element.
  nrc::TypePtr flat_elem;
};

/// Enumerates the dictionaries of a nested bag type, parents first.
StatusOr<std::vector<DictEntry>> DictTreeWalk(const nrc::TypePtr& bag_type);

/// The relational dictionary representation: Bag(<label: Label, ...fields>)
/// (scalar elements surface as a single "_value" column).
StatusOr<nrc::TypePtr> RelationalDictType(const nrc::TypePtr& flat_elem);

/// Conventional names for the shredded inputs of relation `name`.
std::string FlatInputName(const std::string& name);
std::string DictInputName(const std::string& name, const std::string& path);

}  // namespace shred
}  // namespace trance

#endif  // TRANCE_SHRED_SHREDDED_TYPE_H_
