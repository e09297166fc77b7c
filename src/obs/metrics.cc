#include "obs/metrics.h"

#include <cstdio>

#include "obs/json.h"

namespace trance {
namespace obs {

std::string MetricSample::ExpositionName() const {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += JsonEscape(v);
    out += '"';
  }
  out += '}';
  return out;
}

void WriteMetricsJson(const std::vector<MetricSample>& samples,
                      JsonWriter* w) {
  w->BeginObject();
  for (const MetricSample& s : samples) {
    w->Key(s.ExpositionName());
    switch (s.kind) {
      case MetricKind::kCounter:
        w->Uint(s.counter_value);
        break;
      case MetricKind::kGauge:
        w->Number(s.gauge_value);
        break;
      case MetricKind::kHistogram: {
        w->BeginObject();
        w->Key("count");
        w->Uint(s.count);
        w->Key("sum");
        w->Number(s.sum);
        w->Key("buckets");
        w->BeginObject();
        uint64_t cum = 0;
        for (size_t i = 0; i < s.bucket_counts.size(); ++i) {
          cum += s.bucket_counts[i];
          // %.17g keeps the bound round-trippable, as JsonWriter::Number.
          char bound[64] = "le_inf";
          if (i < s.bounds.size()) {
            std::snprintf(bound, sizeof(bound), "le_%.17g", s.bounds[i]);
          }
          w->Key(bound);
          w->Uint(cum);
        }
        w->EndObject();
        w->EndObject();
        break;
      }
    }
  }
  w->EndObject();
}

}  // namespace obs
}  // namespace trance
