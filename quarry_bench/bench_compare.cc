// bench_compare: diffs result sets written by `run.py --sweep` against the
// bounds in BENCHMARK.json.
//
//   bench_compare BENCHMARK.json BASE.json OTHER.json [MORE.json ...]
//
// For every (workload, metric) it prints the median of each set over its
// runs, the run-to-run spread (interquartile range over median, quartiles
// as Python's statistics.quantiles(n=4) computes them) and each later set's
// change against the first. A row is
//   unresolved  when a set's spread exceeds the metric's bound,
//   regression  when a later median is worse than the first by more than
//               the bound,
//   ok          otherwise;
// per_layer metrics have no bound and are only listed. Exits 1 when any row
// is a regression or unresolved, or a run failed its checks.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.h"

namespace {

using quarry::json::Value;

bool ReadJson(const char* path, Value* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = quarry::json::Parse(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path, parsed.status().ToString().c_str());
    return false;
  }
  *out = std::move(*parsed);
  return true;
}

/// statistics.quantiles(data, n=4) with its default 'exclusive' method.
std::vector<double> Quartiles(std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const auto ld = static_cast<int64_t>(data.size());
  if (ld < 2) return {0, ld == 1 ? data[0] : 0, 0};
  const int64_t m = ld + 1;
  std::vector<double> result;
  for (int64_t i = 1; i < 4; ++i) {
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    result.push_back((data[j - 1] * static_cast<double>(4 - delta) +
                      data[j] * static_cast<double>(delta)) /
                     4.0);
  }
  return result;
}

double Median(std::vector<double> data) {
  if (data.empty()) return 0;
  std::sort(data.begin(), data.end());
  const size_t n = data.size();
  return n % 2 == 1 ? data[n / 2] : (data[n / 2 - 1] + data[n / 2]) / 2.0;
}

struct MetricSpec {
  std::string unit;
  bool lower_is_better = true;
  double bound = -1;  ///< < 0: a per_layer metric, no bound.
};

struct ResultSet {
  std::string name;
  /// workload -> metric -> values over runs.
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  int failed_runs = 0;
};

bool LoadSet(const char* path, ResultSet* set) {
  Value root;
  if (!ReadJson(path, &root)) return false;
  set->name = path;
  const Value* runs = root.Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    std::fprintf(stderr, "%s: no \"runs\" array\n", path);
    return false;
  }
  for (const Value& run : runs->as_array()) {
    const std::string workload = run.GetString("workload");
    const Value* result = run.Find("result");
    if (result == nullptr || !result->is_object()) {
      ++set->failed_runs;
      continue;
    }
    const Value* correct = result->Find("correct");
    if (correct == nullptr || !correct->is_bool() || !correct->as_bool()) {
      ++set->failed_runs;
    }
    const Value* metrics = result->Find("metrics");
    if (metrics == nullptr || !metrics->is_object()) continue;
    for (const auto& [name, metric] : metrics->as_object()) {
      const Value* value = metric.Find("value");
      if (value != nullptr && value->is_number()) {
        set->values[workload][name].push_back(value->as_double());
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s BENCHMARK.json BASE.json OTHER.json [...]\n",
                 argv[0]);
    return 2;
  }
  Value spec;
  if (!ReadJson(argv[1], &spec)) return 2;
  std::map<std::string, MetricSpec> metrics;
  std::vector<std::string> order;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const Value* list = spec.Find(section);
    if (list == nullptr || !list->is_array()) continue;
    for (const Value& m : list->as_array()) {
      MetricSpec s;
      s.unit = m.GetString("unit");
      s.lower_is_better = m.GetString("better", "lower") == "lower";
      if (const Value* bound = m.Find("bound"); bound && bound->is_number()) {
        s.bound = bound->as_double();
      }
      metrics[m.GetString("name")] = s;
      order.push_back(m.GetString("name"));
    }
  }
  std::vector<std::string> workloads;
  if (const Value* list = spec.Find("workloads"); list && list->is_array()) {
    for (const Value& w : list->as_array()) {
      workloads.push_back(w.GetString("name"));
    }
  }
  std::vector<ResultSet> sets(static_cast<size_t>(argc - 2));
  for (int i = 2; i < argc; ++i) {
    if (!LoadSet(argv[i], &sets[static_cast<size_t>(i - 2)])) return 2;
  }

  int bad = 0;
  for (const ResultSet& set : sets) {
    if (set.failed_runs > 0) {
      std::printf("%s: %d run(s) without a correct result\n",
                  set.name.c_str(), set.failed_runs);
      ++bad;
    }
  }
  std::printf("%-13s %-40s %-6s", "workload", "metric", "unit");
  for (size_t i = 0; i < sets.size(); ++i) {
    std::printf(" %12s %7s", ("median" + std::to_string(i)).c_str(),
                ("iqr" + std::to_string(i)).c_str());
  }
  std::printf(" %8s %6s  verdict\n", "change", "bound");
  for (const std::string& workload : workloads) {
    for (const std::string& name : order) {
      const MetricSpec& m = metrics[name];
      std::vector<double> medians;
      std::vector<double> spreads;
      for (const ResultSet& set : sets) {
        auto w = set.values.find(workload);
        if (w == set.values.end()) break;
        auto v = w->second.find(name);
        if (v == w->second.end()) break;
        const double median = Median(v->second);
        const std::vector<double> q = Quartiles(v->second);
        medians.push_back(median);
        spreads.push_back(median != 0 ? (q[2] - q[0]) / std::abs(median) : 0);
      }
      if (medians.size() != sets.size()) continue;  // not in these sets
      // Largest relative change of a later set against the first, signed so
      // that positive means worse.
      double worst = 0;
      for (size_t i = 1; i < medians.size(); ++i) {
        double change =
            medians[0] != 0 ? (medians[i] - medians[0]) / std::abs(medians[0])
                            : 0;
        if (!m.lower_is_better) change = -change;
        if (i == 1 || change > worst) worst = change;
      }
      std::string verdict = "-";
      if (m.bound >= 0) {
        verdict = "ok";
        if (*std::max_element(spreads.begin(), spreads.end()) > m.bound) {
          verdict = "unresolved";
        } else if (worst > m.bound) {
          verdict = "regression";
        }
        if (verdict != "ok") ++bad;
      }
      std::printf("%-13s %-40s %-6s", workload.c_str(), name.c_str(),
                  m.unit.c_str());
      for (size_t i = 0; i < medians.size(); ++i) {
        std::printf(" %12.6g %6.1f%%", medians[i], 100 * spreads[i]);
      }
      if (m.bound >= 0) {
        std::printf(" %+7.1f%% %5.0f%%  %s\n", 100 * worst, 100 * m.bound,
                    verdict.c_str());
      } else {
        std::printf(" %+7.1f%% %6s  %s\n", 100 * worst, "-", verdict.c_str());
      }
    }
  }
  return bad > 0 ? 1 : 0;
}
