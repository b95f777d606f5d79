#include "telemetry/metrics.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace bpntt::telemetry {

void metrics_registry::claim_name(const std::string& name) const {
  if (counters_.contains(name) || gauges_.contains(name) || reals_.contains(name) ||
      histograms_.contains(name)) {
    throw std::logic_error("metrics_registry: name '" + name + "' is already registered");
  }
}

counter& metrics_registry::make_counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  claim_name(name);
  return *(counters_[name] = std::make_unique<counter>());
}

gauge& metrics_registry::make_gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  claim_name(name);
  return *(gauges_[name] = std::make_unique<gauge>());
}

real_accum& metrics_registry::make_real(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  claim_name(name);
  return *(reals_[name] = std::make_unique<real_accum>());
}

histogram_cell& metrics_registry::make_histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  claim_name(name);
  return *(histograms_[name] = std::make_unique<histogram_cell>());
}

const counter* metrics_registry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const gauge* metrics_registry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const real_accum* metrics_registry::find_real(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = reals_.find(name);
  return it == reals_.end() ? nullptr : it->second.get();
}

const histogram_cell* metrics_registry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

u64 metrics_registry::counter_value(const std::string& name) const {
  const counter* c = find_counter(name);
  return c ? c->value() : 0;
}

u64 metrics_registry::gauge_value(const std::string& name) const {
  const gauge* g = find_gauge(name);
  return g ? g->value() : 0;
}

double metrics_registry::real_value(const std::string& name) const {
  const real_accum* r = find_real(name);
  return r ? r->value() : 0.0;
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
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
  out += '"';
}

std::string format_real(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string metrics_registry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{";
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':' + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':' + std::to_string(g->value());
  }
  out += "},\"reals\":{";
  first = true;
  for (const auto& [name, r] : reals_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':' + format_real(r->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    const latency_histogram snap = h->snapshot();
    append_json_string(out, name);
    out += ":{\"count\":" + std::to_string(snap.count());
    out += ",\"p50_ns\":" + std::to_string(snap.quantile_ns(0.5));
    out += ",\"p95_ns\":" + std::to_string(snap.quantile_ns(0.95));
    out += ",\"p99_ns\":" + std::to_string(snap.quantile_ns(0.99));
    out += ",\"max_ns\":" + std::to_string(snap.max_ns());
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace bpntt::telemetry
