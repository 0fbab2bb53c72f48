#include "bench_common.hpp"

#include <algorithm>

namespace pcf::bench {

AccuracyResult measure_achievable_accuracy(sim::SyncEngine& engine, std::size_t max_rounds,
                                           std::size_t patience) {
  AccuracyResult result;
  result.best_max_error = std::numeric_limits<double>::infinity();
  result.best_p99_error = std::numeric_limits<double>::infinity();
  std::size_t since_improvement = 0;
  while (engine.round() < max_rounds && since_improvement < patience) {
    engine.step();
    const double err = engine.max_error();
    result.best_p99_error = std::min(result.best_p99_error, engine.error_quantile(0.99));
    result.max_abs_flow = std::max(result.max_abs_flow, engine.max_abs_flow());
    if (err < 0.98 * result.best_max_error) {
      result.best_max_error = err;
      since_improvement = 0;
    } else {
      ++since_improvement;
    }
  }
  result.final_max_error = engine.max_error();
  result.final_median_error = engine.median_error();
  result.rounds = engine.round();
  return result;
}

std::vector<double> random_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.uniform();
  return values;
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("paper: Niederbrucker, Strakova, Gansterer — \"Improving Fault Tolerance and "
              "Accuracy of a Distributed Reduction Algorithm\" (2012)\n\n");
}

void emit(const Table& table, const CliFlags& flags) {
  table.print();
  const std::string& csv = flags.get_string("csv");
  if (!csv.empty()) {
    if (table.write_csv(csv)) std::printf("\ncsv written to %s\n", csv.c_str());
  }
}

void define_common_flags(CliFlags& flags) {
  flags.define("seed", std::int64_t{1}, "base RNG seed (schedules and inputs)");
  flags.define("csv", std::string{}, "write the table as CSV to this path");
}

}  // namespace pcf::bench
