#include "trace.h"

#include <fstream>

namespace e2e {

Tracer::Tracer() : t0_(Clock::now()) { spans_.reserve(1 << 14); }

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (t_ == nullptr) return;
  index_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back({name, seconds_since(t_->t0_), 0.0, t_->open_});
  t_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  auto& span = t_->spans_[static_cast<std::size_t>(index_)];
  span.end_s = seconds_since(t_->t0_);
  t_->open_ = span.parent;
}

void Tracer::record(const char* name, double start_s, double end_s) {
  spans_.push_back({name, start_s, end_s, open_});
}

std::string Tracer::render() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (i) out += ",\n";
    out += Json()
               .str("name", s.name)
               .num("start", s.start_s)
               .num("end", s.end_s)
               .integer("parent", s.parent)
               .render();
  }
  return out + "]";
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << render() << '\n';
  return static_cast<bool>(out);
}

}  // namespace e2e
