// gtest printers for runtime::Field and runtime::Row: a failed comparison
// prints the value (`42`, `NULL`, `(1, "a")`) rather than the object's raw
// bytes. gtest finds PrintTo by argument-dependent lookup, so the printers
// live in the values' namespace.
#ifndef TRANCE_TESTS_FIELD_PRINTING_H_
#define TRANCE_TESTS_FIELD_PRINTING_H_

#include <ostream>

#include "runtime/field.h"

namespace trance {
namespace runtime {

inline void PrintTo(const Field& f, std::ostream* os) { *os << f.ToString(); }

inline void PrintTo(const Row& r, std::ostream* os) { *os << RowToString(r); }

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_TESTS_FIELD_PRINTING_H_
