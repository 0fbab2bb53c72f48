#include "sim/metrics.hpp"

#include <cmath>

#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace pcf::sim {

Oracle::Oracle(std::span<const core::Mass> initial) { compute(initial); }

void Oracle::compute(std::span<const core::Mass> masses) {
  PCF_CHECK_MSG(!masses.empty(), "oracle needs at least one mass");
  const std::size_t d = masses.front().dim();
  std::vector<double> weights;
  weights.reserve(masses.size());
  for (const auto& m : masses) {
    PCF_CHECK_MSG(m.dim() == d, "inconsistent mass dimensions");
    weights.push_back(m.w);
  }
  total_weight_ = kahan_sum(weights);
  PCF_CHECK_MSG(total_weight_ != 0.0, "total weight is zero; aggregate undefined");
  numerators_.assign(d, 0.0);
  std::vector<double> component(masses.size());
  for (std::size_t k = 0; k < d; ++k) {
    for (std::size_t i = 0; i < masses.size(); ++i) component[i] = masses[i].s[k];
    numerators_[k] = kahan_sum(component);
  }
}

double Oracle::target(std::size_t k) const {
  PCF_CHECK_MSG(k < numerators_.size(), "oracle component out of range");
  return numerators_[k] / total_weight_;
}

void Oracle::retarget(std::span<const core::Mass> current) { compute(current); }

void Oracle::shift(const core::Mass& delta) {
  PCF_CHECK_MSG(delta.dim() == numerators_.size(), "oracle shift dimension mismatch");
  for (std::size_t k = 0; k < numerators_.size(); ++k) numerators_[k] += delta.s[k];
  total_weight_ += delta.w;
  PCF_CHECK_MSG(total_weight_ != 0.0, "total weight became zero; aggregate undefined");
}

double Oracle::error_of(double estimate, std::size_t k) const {
  const double t = target(k);
  if (!std::isfinite(estimate)) return std::numeric_limits<double>::infinity();
  if (t == 0.0) return std::fabs(estimate);
  return std::fabs((estimate - t) / t);
}

Table Trace::to_table() const {
  Table table({"time", "max_error", "median_error", "mean_error", "max_abs_flow"});
  for (const auto& p : points_) {
    table.add_row({Table::fixed(p.time, 1), Table::sci(p.max_error), Table::sci(p.median_error),
                   Table::sci(p.mean_error), Table::sci(p.max_abs_flow)});
  }
  return table;
}

template <class Io, class Self>
void Oracle::field_list(Io& io, Self& self) {
  std::uint64_t dim = self.numerators_.size();
  io.field(dim);
  io.require(dim == self.numerators_.size(), "oracle checkpoint: dimension mismatch");
  for (auto& v : self.numerators_) io.field(v);
  io.field(self.total_weight_);
}

void Oracle::fields(BinaryWriter& w) const { field_list(w, *this); }

void Oracle::fields(BinaryReader& r) { field_list(r, *this); }

}  // namespace pcf::sim
