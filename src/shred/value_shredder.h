// Value-level shredding and unshredding (Section 4): converting nested
// objects to their shredded representation (flat top bag + dictionaries) and
// back. Each lower-level bag receives a unique label.
//
// Dictionaries come in two encodings:
//  - relational (the runtime's): Bag(<label, ...element fields>), one row per
//    element, matching RelationalDictType;
//  - pair (the interpreter's / Fig. 5's): Bag(<label, value: Bag(F)>).
#ifndef TRANCE_SHRED_VALUE_SHREDDER_H_
#define TRANCE_SHRED_VALUE_SHREDDER_H_

#include <string>
#include <vector>

#include "nrc/value.h"
#include "shred/shredded_type.h"
#include "util/status.h"

namespace trance {
namespace shred {

/// A shredded nested value: flat top-level bag plus one dictionary per path.
struct ShreddedValue {
  nrc::Value flat;
  std::vector<std::pair<std::string, nrc::Value>> dicts;  // path -> dict

  const nrc::Value* Dict(const std::string& path) const {
    for (const auto& [p, v] : dicts) {
      if (p == path) return &v;
    }
    return nullptr;
  }
};

/// Shreds a nested bag; dictionaries in relational form. `label_seed` offsets
/// the minted label ids so several inputs get disjoint labels.
StatusOr<ShreddedValue> ShredValue(const nrc::Value& bag,
                                   const nrc::TypePtr& bag_type,
                                   int64_t label_seed = 0);

/// The label seed of a program's `input_index`-th input (declaration order):
/// 1,000,000 ids per input, so inputs of up to a million inner bags each get
/// disjoint labels. Query shredding is correct only while every label names
/// exactly one inner bag.
int64_t InputLabelSeed(size_t input_index);

/// Rebuilds the nested bag from a shredded representation (relational
/// dictionaries).
StatusOr<nrc::Value> UnshredValue(const ShreddedValue& shredded,
                                  const nrc::TypePtr& bag_type);

/// Converts one relational dictionary to pair form (grouping rows by label).
StatusOr<nrc::Value> RelationalToPairDict(const nrc::Value& relational,
                                          const nrc::TypePtr& flat_elem);

/// Converts one pair-form dictionary to relational form.
StatusOr<nrc::Value> PairToRelationalDict(const nrc::Value& pairs,
                                          const nrc::TypePtr& flat_elem);

}  // namespace shred
}  // namespace trance

#endif  // TRANCE_SHRED_VALUE_SHREDDER_H_
