#ifndef COSKQ_BENCHMARK_METRICS_H_
#define COSKQ_BENCHMARK_METRICS_H_

#include <string>
#include <vector>

#include "util/stats.h"

namespace coskq::bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics of one run, in the order they were measured.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

inline double Median(const std::vector<double>& v) {
  return Percentile(v, 50.0);
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace coskq::bench

#endif  // COSKQ_BENCHMARK_METRICS_H_
