#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/json.h"

namespace trance {
namespace obs {

namespace {

// %.17g keeps doubles round-trippable; matches JsonWriter::Number.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Series key: name plus rendered labels, so distinct label sets of one name
// are distinct entries and map ordering gives the sorted snapshot for free.
std::string SeriesKey(const std::string& name, const MetricLabels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';  // unit separator: cannot appear in sane label values
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

}  // namespace

const char* MetricKindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Counter

void Counter::Add(uint64_t v) { v_.fetch_add(v, std::memory_order_relaxed); }

uint64_t Counter::Value() const { return v_.load(std::memory_order_relaxed); }

void Counter::Reset() { v_.store(0, std::memory_order_relaxed); }

// ------------------------------------------------------------------ Gauge

void Gauge::Set(double v) { v_.store(v, std::memory_order_relaxed); }

void Gauge::Add(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void Gauge::SetMax(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Gauge::Value() const { return v_.load(std::memory_order_relaxed); }

void Gauge::Reset() { v_.store(0.0, std::memory_order_relaxed); }

// -------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      bucket_counts_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double v) {
  size_t i =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  bucket_counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (auto& b : bucket_counts_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ----------------------------------------------------------- MetricSample

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

// --------------------------------------------------------- MetricRegistry

MetricRegistry::Entry* MetricRegistry::FindOrCreate(const std::string& name,
                                                    const std::string& help,
                                                    MetricKind kind,
                                                    const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = SeriesKey(name, labels);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      std::fprintf(stderr,
                   "MetricRegistry: metric %s re-registered as %s (was %s)\n",
                   name.c_str(), MetricKindName(kind),
                   MetricKindName(it->second.kind));
      std::abort();
    }
    return &it->second;
  }
  Entry e;
  e.kind = kind;
  e.help = help;
  e.labels = labels;
  e.name = name;
  auto [pos, inserted] = entries_.emplace(key, std::move(e));
  (void)inserted;
  return &pos->second;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& help,
                                    MetricLabels labels) {
  Entry* e = FindOrCreate(name, help, MetricKind::kCounter, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (!e->counter) e->counter.reset(new Counter());
  return e->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& help, MetricLabels labels) {
  Entry* e = FindOrCreate(name, help, MetricKind::kGauge, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (!e->gauge) e->gauge.reset(new Gauge());
  return e->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& help,
                                        std::vector<double> bounds,
                                        MetricLabels labels) {
  Entry* e = FindOrCreate(name, help, MetricKind::kHistogram, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (!e->histogram) e->histogram.reset(new Histogram(std::move(bounds)));
  return e->histogram.get();
}

std::vector<MetricSample> MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    (void)key;
    MetricSample s;
    s.name = e.name;
    s.help = e.help;
    s.labels = e.labels;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.counter_value = e.counter ? e.counter->Value() : 0;
        break;
      case MetricKind::kGauge:
        s.gauge_value = e.gauge ? e.gauge->Value() : 0;
        break;
      case MetricKind::kHistogram:
        if (e.histogram) {
          s.bounds = e.histogram->bounds_;
          s.bucket_counts.reserve(e.histogram->bucket_counts_.size());
          for (const auto& b : e.histogram->bucket_counts_) {
            s.bucket_counts.push_back(b.load(std::memory_order_relaxed));
          }
          s.sum = e.histogram->sum_.load(std::memory_order_relaxed);
          s.count = e.histogram->count_.load(std::memory_order_relaxed);
        }
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : entries_) {
    (void)key;
    if (e.counter) e.counter->Reset();
    if (e.gauge) e.gauge->Reset();
    if (e.histogram) e.histogram->Reset();
  }
}

std::string MetricRegistry::SamplesToPrometheusText(
    const std::vector<MetricSample>& samples) {
  std::string out;
  std::string last_family;
  for (const MetricSample& s : samples) {
    if (s.name != last_family) {
      last_family = s.name;
      out += "# HELP " + s.name + " " + s.help + "\n";
      out += "# TYPE " + s.name + " " + MetricKindName(s.kind) + "\n";
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        out += s.ExpositionName() + " " + std::to_string(s.counter_value) + "\n";
        break;
      case MetricKind::kGauge:
        out += s.ExpositionName() + " " + FormatDouble(s.gauge_value) + "\n";
        break;
      case MetricKind::kHistogram: {
        // Cumulative buckets per the exposition format.
        uint64_t cum = 0;
        std::string label_infix;
        for (const auto& [k, v] : s.labels) {
          label_infix += k;
          label_infix += "=\"";
          label_infix += JsonEscape(v);
          label_infix += "\",";
        }
        for (size_t i = 0; i < s.bucket_counts.size(); ++i) {
          cum += s.bucket_counts[i];
          const std::string le =
              i < s.bounds.size() ? FormatDouble(s.bounds[i]) : "+Inf";
          out += s.name + "_bucket{" + label_infix + "le=\"" + le + "\"} " +
                 std::to_string(cum) + "\n";
        }
        const std::string suffix =
            s.labels.empty() ? std::string()
                             : "{" + label_infix.substr(0, label_infix.size() - 1) + "}";
        out += s.name + "_sum" + suffix + " " + FormatDouble(s.sum) + "\n";
        out += s.name + "_count" + suffix + " " + std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricRegistry::ToPrometheusText() const {
  return SamplesToPrometheusText(Snapshot());
}

void MetricRegistry::WriteSamplesJson(const std::vector<MetricSample>& samples,
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
          const std::string key =
              i < s.bounds.size() ? "le_" + FormatDouble(s.bounds[i]) : "le_inf";
          w->Key(key);
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

void MetricRegistry::WriteJson(JsonWriter* w) const {
  WriteSamplesJson(Snapshot(), w);
}

std::string MetricRegistry::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

}  // namespace obs
}  // namespace trance
