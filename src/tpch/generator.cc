#include "tpch/generator.h"

#include <algorithm>

#include "util/random.h"

namespace trance {
namespace tpch {

using nrc::Type;
using runtime::Field;
using runtime::Row;
using runtime::Schema;

namespace {

const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                           "MACHINERY"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                            "TRUCK"};
const char* kContainers[] = {"JUMBO BAG", "LG BOX", "MED CASE", "SM PKG",
                             "WRAP CAN"};
const char* kTypes[] = {"ECONOMY ANODIZED", "LARGE BRUSHED",
                        "MEDIUM BURNISHED", "PROMO PLATED", "SMALL POLISHED"};

template <size_t N>
std::string Pick(Rng* rng, const char* (&arr)[N]) {
  return arr[rng->Uniform(N)];
}

std::string Comment(Rng* rng) { return rng->NextString(12); }

}  // namespace

runtime::Schema RegionSchema() {
  return Schema({{"r_regionkey", Type::Int()},
                 {"r_name", Type::String()},
                 {"r_comment", Type::String()}});
}

runtime::Schema NationSchema() {
  return Schema({{"n_nationkey", Type::Int()},
                 {"n_name", Type::String()},
                 {"n_regionkey", Type::Int()},
                 {"n_comment", Type::String()}});
}

runtime::Schema CustomerSchema() {
  return Schema({{"c_custkey", Type::Int()},
                 {"c_name", Type::String()},
                 {"c_address", Type::String()},
                 {"c_nationkey", Type::Int()},
                 {"c_phone", Type::String()},
                 {"c_acctbal", Type::Real()},
                 {"c_mktsegment", Type::String()},
                 {"c_comment", Type::String()}});
}

runtime::Schema OrdersSchema() {
  return Schema({{"o_orderkey", Type::Int()},
                 {"o_custkey", Type::Int()},
                 {"o_orderstatus", Type::String()},
                 {"o_totalprice", Type::Real()},
                 {"o_orderdate", Type::Date()},
                 {"o_orderpriority", Type::String()},
                 {"o_clerk", Type::String()},
                 {"o_shippriority", Type::Int()},
                 {"o_comment", Type::String()}});
}

runtime::Schema LineitemSchema() {
  return Schema({{"l_orderkey", Type::Int()},
                 {"l_partkey", Type::Int()},
                 {"l_suppkey", Type::Int()},
                 {"l_linenumber", Type::Int()},
                 {"l_quantity", Type::Real()},
                 {"l_extendedprice", Type::Real()},
                 {"l_discount", Type::Real()},
                 {"l_tax", Type::Real()},
                 {"l_returnflag", Type::String()},
                 {"l_linestatus", Type::String()},
                 {"l_shipdate", Type::Date()},
                 {"l_commitdate", Type::Date()},
                 {"l_receiptdate", Type::Date()},
                 {"l_shipinstruct", Type::String()},
                 {"l_shipmode", Type::String()},
                 {"l_comment", Type::String()}});
}

runtime::Schema PartSchema() {
  return Schema({{"p_partkey", Type::Int()},
                 {"p_name", Type::String()},
                 {"p_mfgr", Type::String()},
                 {"p_brand", Type::String()},
                 {"p_type", Type::String()},
                 {"p_size", Type::Int()},
                 {"p_container", Type::String()},
                 {"p_retailprice", Type::Real()},
                 {"p_comment", Type::String()}});
}

TpchData Generate(const TpchConfig& config) {
  Rng rng(config.seed);
  TpchData d;
  const double sf = config.scale;
  const int64_t n_cust = std::max<int64_t>(4, static_cast<int64_t>(150000 * sf));
  const int64_t n_orders =
      std::max<int64_t>(8, static_cast<int64_t>(1500000 * sf));
  const int64_t n_lineitem =
      std::max<int64_t>(16, static_cast<int64_t>(6000000 * sf));
  const int64_t n_part = std::max<int64_t>(4, static_cast<int64_t>(200000 * sf));
  // Bounds l_suppkey (the supplier table itself is not generated).
  const int64_t n_supp = std::max<int64_t>(2, static_cast<int64_t>(10000 * sf));

  d.region.schema = RegionSchema();
  for (int64_t i = 0; i < 5; ++i) {
    d.region.rows.push_back(Row({Field::Int(i), Field::Str(kRegions[i]),
                                 Field::Str(Comment(&rng))}));
  }

  d.nation.schema = NationSchema();
  for (int64_t i = 0; i < 25; ++i) {
    d.nation.rows.push_back(Row({Field::Int(i),
                                 Field::Str("NATION_" + std::to_string(i)),
                                 Field::Int(i % 5),
                                 Field::Str(Comment(&rng))}));
  }

  d.customer.schema = CustomerSchema();
  for (int64_t i = 0; i < n_cust; ++i) {
    d.customer.rows.push_back(Row({
        Field::Int(i),
        Field::Str("Customer#" + std::to_string(i)),
        Field::Str(rng.NextString(10)),
        Field::Int(rng.UniformRange(0, 24)),
        Field::Str(rng.NextString(10)),
        Field::Real(rng.UniformReal(-999.99, 9999.99)),
        Field::Str(Pick(&rng, kSegments)),
        Field::Str(Comment(&rng)),
    }));
  }

  // Skewed foreign keys: rank r of the Zipf sampler maps to key r, so key 0
  // is the heaviest ("duplicating values", as the skewed dbgen does).
  ZipfSampler cust_zipf(static_cast<size_t>(n_cust), config.skew);
  d.orders.schema = OrdersSchema();
  for (int64_t i = 0; i < n_orders; ++i) {
    int64_t custkey = static_cast<int64_t>(cust_zipf.Sample(&rng));
    d.orders.rows.push_back(Row({
        Field::Int(i),
        Field::Int(custkey),
        Field::Str(rng.NextBool(0.5) ? "O" : "F"),
        Field::Real(rng.UniformReal(1000.0, 450000.0)),
        Field::Int(rng.UniformRange(8036, 10590)),  // 1992..1998 day numbers
        Field::Str(Pick(&rng, kPriorities)),
        Field::Str("Clerk#" + std::to_string(rng.Uniform(1000))),
        Field::Int(0),
        Field::Str(Comment(&rng)),
    }));
  }

  // Orders per customer and part usage are skewed ("very few customers can
  // have very many orders"); lineitems per order stay uniform, as in the
  // skewed dbgen which duplicates join values.
  ZipfSampler part_zipf(static_cast<size_t>(n_part), config.skew);
  d.lineitem.schema = LineitemSchema();
  for (int64_t i = 0; i < n_lineitem; ++i) {
    int64_t orderkey = rng.UniformRange(0, n_orders - 1);
    int64_t partkey = static_cast<int64_t>(part_zipf.Sample(&rng));
    int64_t shipdate = rng.UniformRange(8036, 10590);
    d.lineitem.rows.push_back(Row({
        Field::Int(orderkey),
        Field::Int(partkey),
        Field::Int(rng.UniformRange(0, n_supp - 1)),
        Field::Int(i % 7),
        Field::Real(static_cast<double>(rng.UniformRange(1, 50))),
        Field::Real(rng.UniformReal(900.0, 105000.0)),
        Field::Real(rng.UniformRange(0, 10) / 100.0),
        Field::Real(rng.UniformRange(0, 8) / 100.0),
        Field::Str(rng.NextBool(0.25) ? "R" : (rng.NextBool(0.5) ? "A" : "N")),
        Field::Str(rng.NextBool(0.5) ? "O" : "F"),
        Field::Int(shipdate),
        Field::Int(shipdate + rng.UniformRange(-30, 30)),
        Field::Int(shipdate + rng.UniformRange(1, 30)),
        Field::Str(rng.NextString(8)),
        Field::Str(Pick(&rng, kShipModes)),
        Field::Str(Comment(&rng)),
    }));
  }

  d.part.schema = PartSchema();
  for (int64_t i = 0; i < n_part; ++i) {
    d.part.rows.push_back(Row({
        Field::Int(i),
        Field::Str("part_" + rng.NextString(6) + "_" + std::to_string(i)),
        Field::Str("Manufacturer#" + std::to_string(rng.Uniform(5) + 1)),
        Field::Str("Brand#" + std::to_string(rng.Uniform(25) + 11)),
        Field::Str(Pick(&rng, kTypes)),
        Field::Int(rng.UniformRange(1, 50)),
        Field::Str(Pick(&rng, kContainers)),
        Field::Real(900.0 + (static_cast<double>(i % 1000) / 10.0)),
        Field::Str(Comment(&rng)),
    }));
  }

  return d;
}

}  // namespace tpch
}  // namespace trance
