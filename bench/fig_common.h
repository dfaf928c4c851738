#ifndef LAZYSI_BENCH_FIG_COMMON_H_
#define LAZYSI_BENCH_FIG_COMMON_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "simmodel/model.h"

namespace lazysi {
namespace bench {

using simmodel::Params;
using simmodel::ReplicatedResult;
using simmodel::Summary;

/// One sweep point: the x value and the three algorithms' results.
struct Row {
  double x;
  ReplicatedResult weak;
  ReplicatedResult session;
  ReplicatedResult strong;
};

/// Runs the three Section 6 algorithms over a sweep of x values.
/// `make_params(x)` builds the Params for one point (guarantee is
/// overwritten per algorithm). Honors LAZYSI_REPS and LAZYSI_TIME_SCALE.
inline std::vector<Row> SweepAlgorithms(
    const std::vector<double>& xs,
    const std::function<Params(double)>& make_params) {
  const int reps = simmodel::DefaultReplications();
  const double scale = simmodel::TimeScale();
  std::vector<Row> rows;
  for (double x : xs) {
    Row row;
    row.x = x;
    for (auto g : {session::Guarantee::kWeakSI,
                   session::Guarantee::kStrongSessionSI,
                   session::Guarantee::kStrongSI}) {
      Params p = make_params(x);
      p.guarantee = g;
      p.warmup_time *= scale;
      p.measure_time *= scale;
      ReplicatedResult r = simmodel::RunReplications(p, reps);
      switch (g) {
        case session::Guarantee::kWeakSI: row.weak = r; break;
        case session::Guarantee::kStrongSessionSI: row.session = r; break;
        case session::Guarantee::kStrongSI: row.strong = r; break;
        case session::Guarantee::kPrefixConsistentSI: break;  // not plotted
      }
    }
    rows.push_back(row);
    std::fflush(stdout);
  }
  return rows;
}

/// Prints a figure table: x column plus mean +/- 95% CI for each algorithm,
/// matching the three curves of the paper's plots.
inline void PrintFigure(const std::string& title, const std::string& xlabel,
                        const std::string& ylabel,
                        const std::vector<Row>& rows,
                        const std::function<Summary(const ReplicatedResult&)>&
                            metric,
                        bool show_ideal = false) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '=').c_str());
  std::printf("%-22s | %-24s | %-24s | %-24s%s\n", xlabel.c_str(),
              "ALG-WEAK-SI", "ALG-STRONG-SESSION-SI", "ALG-STRONG-SI",
              show_ideal ? " | y=x" : "");
  std::printf("%-22s | %-24s | %-24s | %-24s%s\n",
              ("(" + ylabel + ")").c_str(), "mean +/- 95% CI",
              "mean +/- 95% CI", "mean +/- 95% CI", show_ideal ? " |" : "");
  std::printf("%s\n", std::string(show_ideal ? 110 : 100, '-').c_str());
  for (const Row& row : rows) {
    const Summary w = metric(row.weak);
    const Summary s = metric(row.session);
    const Summary g = metric(row.strong);
    if (show_ideal) {
      std::printf("%-22.0f | %10.2f +/- %-10.2f | %10.2f +/- %-10.2f | "
                  "%10.2f +/- %-10.2f | %6.0f\n",
                  row.x, w.mean, w.ci95, s.mean, s.ci95, g.mean, g.ci95,
                  row.x);
    } else {
      std::printf("%-22.0f | %10.3f +/- %-10.3f | %10.3f +/- %-10.3f | "
                  "%10.3f +/- %-10.3f\n",
                  row.x, w.mean, w.ci95, s.mean, s.ci95, g.mean, g.ci95);
    }
  }
  std::printf("\n");
}

/// Prints the Table-1 parameter block once per binary.
inline void PrintParams(const Params& p) {
  std::printf("%s", p.ToTableString().c_str());
  std::printf("  replications       %d\n", simmodel::DefaultReplications());
  const double scale = simmodel::TimeScale();
  if (scale != 1.0) {
    std::printf("  (LAZYSI_TIME_SCALE %.3f: windows scaled down)\n", scale);
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace lazysi

#endif  // LAZYSI_BENCH_FIG_COMMON_H_
