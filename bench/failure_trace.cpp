#include "failure_trace.hpp"

#include <memory>

namespace pcf::bench {

void define_failure_flags(CliFlags& flags) {
  define_common_flags(flags);
  flags.define("dims", std::int64_t{6}, "hypercube dimension (paper: 6 → 64 nodes)");
  flags.define("rounds", std::int64_t{200}, "iterations per panel (paper: 200)");
  flags.define("print-every", std::int64_t{5}, "table row cadence in iterations");
}

namespace {

struct Series {
  std::vector<double> max_error;
  std::vector<double> median_error;
};

Series trace_run(core::Algorithm algorithm, const net::Topology& topology,
                 std::span<const core::Mass> masses, double failure_round, std::uint64_t seed,
                 std::size_t rounds) {
  sim::SyncEngineConfig config;
  config.algorithm = algorithm;
  config.seed = seed;
  const auto edges = topology.edges();
  // A fixed, seed-derived link fails — the same link for every algorithm.
  Rng pick(seed ^ 0xfa11);
  const auto& edge = edges[static_cast<std::size_t>(pick.below(edges.size()))];
  config.faults.link_failures.push_back({failure_round, edge.first, edge.second});

  sim::SyncEngine engine(topology, masses, config);
  Series series;
  for (std::size_t r = 0; r < rounds; ++r) {
    engine.step();
    series.max_error.push_back(engine.max_error());
    series.median_error.push_back(engine.median_error());
  }
  return series;
}

}  // namespace

void run_failure_trace(core::Algorithm algorithm, bool compare_with_pf, const CliFlags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto dims = static_cast<std::size_t>(flags.get_int("dims"));
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds"));
  const auto cadence = static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("print-every")));

  const auto topology = net::Topology::hypercube(dims);
  const auto values = random_inputs(topology.size(), seed);
  const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);

  for (const double failure_round : {75.0, 175.0}) {
    std::printf("--- panel: failure handling after %.0f iterations ---\n", failure_round);
    const auto main_series = trace_run(algorithm, topology, masses, failure_round, seed, rounds);
    std::vector<std::string> headers{"iteration", "max_error", "median_error"};
    Series pf_series;
    if (compare_with_pf) {
      pf_series =
          trace_run(core::Algorithm::kPushFlow, topology, masses, failure_round, seed, rounds);
      headers.push_back("pf_max_error");
      headers.push_back("pf_median_error");
    }
    Table table(headers);
    for (std::size_t r = 0; r < rounds; ++r) {
      const bool is_failure_neighborhood =
          r + 1 >= static_cast<std::size_t>(failure_round) - 1 &&
          r + 1 <= static_cast<std::size_t>(failure_round) + 3;
      if ((r + 1) % cadence != 0 && r + 1 != rounds && !is_failure_neighborhood) continue;
      std::vector<std::string> row{Table::num(static_cast<std::int64_t>(r + 1)),
                                   Table::sci(main_series.max_error[r]),
                                   Table::sci(main_series.median_error[r])};
      if (compare_with_pf) {
        row.push_back(Table::sci(pf_series.max_error[r]));
        row.push_back(Table::sci(pf_series.median_error[r]));
      }
      table.add_row(std::move(row));
    }
    emit(table, flags);
    std::printf("\n");
  }
}

}  // namespace pcf::bench
