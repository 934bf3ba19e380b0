#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace quarry::obs {

namespace {

/// Renders a label set as `{k1="v1",k2="v2"}` (empty string for no labels).
/// Doubles as the instance key inside a family, so equal label sets always
/// hit the same metric object.
std::string LabelString(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"";
    for (char c : value) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += "\"";
  }
  out += "}";
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest float rendering that survives JSON / Prometheus parsers
/// (%.17g is exact for doubles; trim to %g when it round-trips).
std::string NumberToString(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  double parsed = std::strtod(buf, nullptr);
  if (parsed != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON has no Inf literal; histogram bucket bounds use a string there.
std::string JsonNumber(double v) {
  if (std::isinf(v) || std::isnan(v)) {
    std::string quoted(1, '"');
    quoted += NumberToString(v);
    quoted += '"';
    return quoted;
  }
  return NumberToString(v);
}

[[noreturn]] void DieOnTypeClash(const std::string& family) {
  std::fprintf(stderr,
               "obs: metric family '%s' re-registered with a different "
               "type or bucket layout\n",
               family.c_str());
  std::abort();
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    out.push_back(bound);
    bound *= factor;
  }
  return out;
}

const std::vector<double>& LatencyBucketsMicros() {
  static const std::vector<double> kBounds =
      ExponentialBuckets(1.0, 4.0, 13);  // 1us .. ~16.8s
  return kBounds;
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Family& MetricsRegistry::GetFamily(const std::string& family,
                                                    Kind kind,
                                                    const std::string& help) {
  auto it = families_.find(family);
  if (it == families_.end()) {
    Family f;
    f.kind = kind;
    f.help = help;
    it = families_.emplace(family, std::move(f)).first;
  } else if (it->second.kind != kind) {
    DieOnTypeClash(family);
  }
  if (it->second.help.empty() && !help.empty()) it->second.help = help;
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& family,
                                  const std::string& help,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = GetFamily(family, Kind::kCounter, help);
  std::string key = LabelString(labels);
  auto it = f.counters.find(key);
  if (it == f.counters.end()) {
    it = f.counters.emplace(key, new Counter()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& family,
                              const std::string& help, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = GetFamily(family, Kind::kGauge, help);
  std::string key = LabelString(labels);
  auto it = f.gauges.find(key);
  if (it == f.gauges.end()) {
    it = f.gauges.emplace(key, new Gauge()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& family,
                                      const std::string& help,
                                      const std::vector<double>& bounds,
                                      const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = GetFamily(family, Kind::kHistogram, help);
  const std::vector<double>& effective =
      bounds.empty() ? LatencyBucketsMicros() : bounds;
  if (f.histograms.empty()) {
    f.bounds = effective;
  } else if (f.bounds != effective) {
    DieOnTypeClash(family);
  }
  std::string key = LabelString(labels);
  auto it = f.histograms.find(key);
  if (it == f.histograms.end()) {
    it = f.histograms.emplace(key, new Histogram(effective)).first;
  }
  return *it->second;
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out << "# HELP " << name << " " << family.help << "\n";
    }
    const char* type = family.kind == Kind::kCounter   ? "counter"
                       : family.kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    out << "# TYPE " << name << " " << type << "\n";
    switch (family.kind) {
      case Kind::kCounter:
        for (const auto& [labels, counter] : family.counters) {
          out << name << labels << " " << counter->value() << "\n";
        }
        break;
      case Kind::kGauge:
        for (const auto& [labels, gauge] : family.gauges) {
          out << name << labels << " " << NumberToString(gauge->value())
              << "\n";
        }
        break;
      case Kind::kHistogram:
        for (const auto& [labels, histogram] : family.histograms) {
          // Bucket lines carry the instance labels plus `le`; cumulative
          // counts, per the exposition format.
          int64_t cumulative = 0;
          for (size_t i = 0; i <= histogram->bounds().size(); ++i) {
            cumulative += histogram->bucket_count(i);
            std::string le = i < histogram->bounds().size()
                                 ? NumberToString(histogram->bounds()[i])
                                 : "+Inf";
            std::string bucket_labels =
                labels.empty()
                    ? "{le=\"" + le + "\"}"
                    : labels.substr(0, labels.size() - 1) + ",le=\"" + le +
                          "\"}";
            out << name << "_bucket" << bucket_labels << " " << cumulative
                << "\n";
          }
          out << name << "_sum" << labels << " "
              << NumberToString(histogram->sum()) << "\n";
          out << name << "_count" << labels << " " << histogram->count()
              << "\n";
        }
        break;
    }
  }
  return out.str();
}

std::string MetricsRegistry::JsonSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{";
  bool first = true;
  auto emit_key = [&](const std::string& name, const std::string& labels) {
    if (!first) out << ",";
    first = false;
    out << "\n  \"" << JsonEscape(name + labels) << "\": ";
  };
  for (const auto& [name, family] : families_) {
    switch (family.kind) {
      case Kind::kCounter:
        for (const auto& [labels, counter] : family.counters) {
          emit_key(name, labels);
          out << counter->value();
        }
        break;
      case Kind::kGauge:
        for (const auto& [labels, gauge] : family.gauges) {
          emit_key(name, labels);
          out << JsonNumber(gauge->value());
        }
        break;
      case Kind::kHistogram:
        for (const auto& [labels, histogram] : family.histograms) {
          emit_key(name, labels);
          out << "{\"count\": " << histogram->count()
              << ", \"sum\": " << JsonNumber(histogram->sum())
              << ", \"buckets\": [";
          for (size_t i = 0; i <= histogram->bounds().size(); ++i) {
            if (i > 0) out << ", ";
            std::string le =
                i < histogram->bounds().size()
                    ? JsonNumber(histogram->bounds()[i])
                    : "\"+Inf\"";
            out << "{\"le\": " << le << ", \"n\": "
                << histogram->bucket_count(i) << "}";
          }
          out << "]}";
        }
        break;
    }
  }
  out << "\n}\n";
  return out.str();
}

std::vector<std::string> MetricsRegistry::FamilyNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) out.push_back(name);
  return out;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [labels, counter] : family.counters) counter->Reset();
    for (auto& [labels, gauge] : family.gauges) gauge->Reset();
    for (auto& [labels, histogram] : family.histograms) histogram->Reset();
  }
}

}  // namespace quarry::obs
