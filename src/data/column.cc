#include "data/column.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eafe::data {

double Column::Min() const {
  double m = std::numeric_limits<double>::infinity();
  for (double v : values_) m = std::min(m, v);
  return m;
}

double Column::Max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (double v : values_) m = std::max(m, v);
  return m;
}

double Column::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Column::StdDev() const {
  if (values_.size() < 2) return 0.0;
  const double mean = Mean();
  double sum = 0.0;
  for (double v : values_) sum += (v - mean) * (v - mean);
  return std::sqrt(sum / static_cast<double>(values_.size() - 1));
}

bool Column::HasNonFinite() const {
  for (double v : values_) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

size_t Column::ReplaceNonFinite(double replacement) {
  size_t count = 0;
  for (double& v : values_) {
    if (!std::isfinite(v)) {
      v = replacement;
      ++count;
    }
  }
  return count;
}

bool Column::IsConstant() const {
  if (values_.empty()) return true;
  const double first = values_.front();
  return std::none_of(values_.begin() + 1, values_.end(),
                      [first](double v) { return v != first; });
}

}  // namespace eafe::data
