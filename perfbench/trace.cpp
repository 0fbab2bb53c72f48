#include "trace.hpp"

#include "support/json.hpp"

namespace pcfbench {

Tracer::Scope::Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.trial = tracer_->trial_;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.start_s = seconds_since(tracer_->origin_);
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_s = seconds_since(tracer_->origin_);
  tracer_->open_.pop_back();
}

void Tracer::begin_trial(int trial, bool record) {
  trial_ = trial;
  recording_ = record;
}

std::map<std::string, double> Tracer::total_by_name(int trial) const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (s.trial == trial) out[std::string(s.name)] += s.duration();
  }
  return out;
}

std::map<std::string, double> Tracer::self_by_layer(int trial) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.trial == trial && s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.duration();
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.trial == trial) out[std::string(s.layer())] += s.duration() - child_time[i];
  }
  return out;
}

std::vector<double> Tracer::durations(int trial, std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.trial == trial && s.name == name) out.push_back(s.duration());
  }
  return out;
}

std::string Tracer::to_json() const {
  pcf::JsonWriter json;
  json.begin_object();
  json.field("schema", "pcfbench-spans");
  json.key("spans");
  json.begin_array();
  for (const Span& s : spans_) {
    json.begin_object();
    json.field("name", s.name);
    json.field("trial", std::int64_t{s.trial});
    json.field("parent", std::int64_t{s.parent});
    json.field("start_s", s.start_s);
    json.field("end_s", s.end_s);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace pcfbench
