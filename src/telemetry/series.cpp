#include "telemetry/series.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "stats/json.hpp"

namespace optsync::telemetry {

SeriesSet::SeriesSet(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::size_t SeriesSet::series(std::string name, Labels labels) {
  for (std::size_t i = 0; i < all_.size(); ++i) {
    if (all_[i].name == name && all_[i].labels == labels) return i;
  }
  Series s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  all_.push_back(std::move(s));
  return all_.size() - 1;
}

void SeriesSet::append(std::size_t idx, sim::Time t, double v) {
  Series& s = all_[idx];
  if (s.samples.size() >= capacity_) {
    s.samples.pop_front();
    ++s.dropped;
  }
  s.samples.push_back(Sample{t, v});
}

const Series* SeriesSet::find(std::string_view name,
                              const Labels& labels) const {
  for (const Series& s : all_) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

void SeriesSet::set_help(const std::string& name, std::string help) {
  for (auto& [n, h] : help_) {
    if (n == name) {
      h = std::move(help);
      return;
    }
  }
  help_.emplace_back(name, std::move(help));
}

const std::string* SeriesSet::help_of(const std::string& name) const {
  for (const auto& [n, h] : help_) {
    if (n == name) return &h;
  }
  return nullptr;
}

namespace {

std::string sanitize_name(std::string_view raw, bool allow_colon) {
  std::string out;
  out.reserve(raw.size() + 1);
  for (const char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' ||
                    (allow_colon && c == ':');
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  if (out.front() >= '0' && out.front() <= '9') out.insert(out.begin(), '_');
  return out;
}

}  // namespace

std::string SeriesSet::sanitize_metric_name(std::string_view raw) {
  return sanitize_name(raw, /*allow_colon=*/true);
}

std::string SeriesSet::sanitize_label_name(std::string_view raw) {
  return sanitize_name(raw, /*allow_colon=*/false);
}

namespace {

/// Prometheus label values escape backslash, double-quote, and newline.
void write_escaped(std::ostream& out, const std::string& v) {
  for (const char c : v) {
    if (c == '\\' || c == '"') out << '\\';
    if (c == '\n') {
      out << "\\n";
      continue;
    }
    out << c;
  }
}

void write_value(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    // Exposition format spells non-finite values out; don't emit "inf"
    // from printf locale-dependently.
    out << (std::isnan(v) ? "NaN" : (v > 0 ? "+Inf" : "-Inf"));
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out << buf;
}

}  // namespace

void SeriesSet::write_prometheus(std::ostream& out) const {
  // Group by SANITIZED metric name: two raw names that collapse to the
  // same exposition name must render as one contiguous family, or the
  // output fails the format's "metric may not appear twice" rule.
  std::vector<std::string> sanitized;
  sanitized.reserve(all_.size());
  for (const Series& s : all_) {
    sanitized.push_back(sanitize_metric_name(s.name));
  }
  std::set<std::string> emitted;
  for (std::size_t i = 0; i < all_.size(); ++i) {
    const std::string& name = sanitized[i];
    if (!emitted.insert(name).second) continue;
    // HELP precedes TYPE (promtool insists on the order). HELP text
    // escapes backslash and newline only.
    const std::string* help = help_of(all_[i].name);
    out << "# HELP " << name << ' ';
    if (help != nullptr) {
      for (const char c : *help) {
        if (c == '\\') {
          out << "\\\\";
        } else if (c == '\n') {
          out << "\\n";
        } else {
          out << c;
        }
      }
    } else {
      out << "optsync gauge " << name;
    }
    out << "\n# TYPE " << name << " gauge\n";
    for (std::size_t j = 0; j < all_.size(); ++j) {
      if (sanitized[j] != name) continue;
      const Series& peer = all_[j];
      out << name;
      if (!peer.labels.empty()) {
        out << '{';
        bool first = true;
        for (const auto& [k, v] : peer.labels) {
          if (!first) out << ',';
          first = false;
          out << sanitize_label_name(k) << "=\"";
          write_escaped(out, v);
          out << '"';
        }
        out << '}';
      }
      out << ' ';
      write_value(out, peer.last());
      out << '\n';
    }
  }
}

void SeriesSet::write_json(std::ostream& out, sim::Duration interval_ns) const {
  stats::JsonWriter w(out, /*pretty=*/true);
  w.begin_object();
  w.value("schema", "optsync-timeseries/1");
  w.value("interval_ns", static_cast<std::uint64_t>(interval_ns));
  w.begin_array("series");
  for (const Series& s : all_) {
    w.begin_object();
    w.value("name", s.name);
    w.begin_object("labels");
    for (const auto& [k, v] : s.labels) w.value(k, v);
    w.end_object();
    w.value("dropped", s.dropped);
    w.begin_array("samples");
    for (const Sample& p : s.samples) {
      w.begin_array();
      w.value(static_cast<std::uint64_t>(p.t));
      w.value(p.v);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

}  // namespace optsync::telemetry
