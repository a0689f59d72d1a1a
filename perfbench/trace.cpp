#include "trace.hpp"

#include <fstream>

#include "common.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

std::size_t Tracer::begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start = now_seconds();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t index) {
  spans_[index].end = now_seconds();
  spmap::require(!open_.empty() && open_.back() == index,
                 "tracer: spans must close in LIFO order");
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += (spans_[i].end - spans_[i].start) - child_time[i];
  }
  return self;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

void Tracer::merge(const Tracer& other) {
  const std::int64_t offset = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
  for (const auto& [name, amount] : other.counters_) counters_[name] += amount;
}

void Tracer::write(const std::string& path) const {
  spmap::Json spans = spmap::Json::array();
  for (const Span& span : spans_) {
    spmap::Json entry = spmap::Json::object();
    entry.set("name", span.name);
    entry.set("start_s", span.start);
    entry.set("end_s", span.end);
    entry.set("parent", span.parent);
    spans.push_back(std::move(entry));
  }
  spmap::Json counters = spmap::Json::object();
  for (const auto& [name, amount] : counters_) counters.set(name, amount);
  spmap::Json doc = spmap::Json::object();
  doc.set("schema", "spmap-perfbench-trace/1");
  doc.set("spans", std::move(spans));
  doc.set("counters", std::move(counters));
  std::ofstream file(path);
  spmap::require(file.good(), "tracer: cannot write " + path);
  file << doc.dump() << '\n';
}

}  // namespace perfbench
