// TPC-H data generator with a Zipfian skew knob (the paper's skewed TPC-H
// generator [43]): seeded, in-memory, producing runtime rows for the six
// tables the query suite reads. Skew factor 0 draws foreign keys uniformly
// (the standard generator); higher factors concentrate order ownership and
// part usage on few heavy keys ("skew factor 4 gives the greatest skew").
#ifndef TRANCE_TPCH_GENERATOR_H_
#define TRANCE_TPCH_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/dataset.h"
#include "runtime/schema.h"
#include "util/status.h"

namespace trance {
namespace tpch {

struct TpchConfig {
  /// Fraction of the SF-1 row counts (0.001 => 6k lineitems).
  double scale = 0.002;
  /// Zipf exponent applied to orders.custkey and lineitem.partkey
  /// (0 = uniform); lineitems per order stay uniform.
  double skew = 0.0;
  uint64_t seed = 42;
};

/// One generated table.
struct Table {
  runtime::Schema schema;
  std::vector<runtime::Row> rows;
};

/// The TPC-H tables the queries read (supplier and partsupp are not
/// generated).
struct TpchData {
  Table region;
  Table nation;
  Table customer;
  Table orders;
  Table lineitem;
  Table part;
};

/// Generates all tables for `config`.
TpchData Generate(const TpchConfig& config);

/// Schemas (independent of data; used to declare program input types).
runtime::Schema RegionSchema();
runtime::Schema NationSchema();
runtime::Schema CustomerSchema();
runtime::Schema OrdersSchema();
runtime::Schema LineitemSchema();
runtime::Schema PartSchema();

}  // namespace tpch
}  // namespace trance

#endif  // TRANCE_TPCH_GENERATOR_H_
