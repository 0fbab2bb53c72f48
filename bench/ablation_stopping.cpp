// Ablation A4 — oracle vs. practical stopping.
//
// The experiments use an oracle ("stop when the true max relative error is
// below ε") that no deployed node can evaluate. The practical alternative is
// the LocalStop detector: a node considers itself converged once its own
// estimate has been stable to a relative tolerance for `patience` consecutive
// rounds. This ablation quantifies the extra rounds the deployable criterion
// costs, and its reliability (true error once all nodes locally stopped).
#include "bench_common.hpp"
#include "core/stopping.hpp"

namespace pcf::bench {
namespace {

int run(int argc, char** argv) {
  CliFlags flags;
  define_common_flags(flags);
  flags.define("dims", std::int64_t{6}, "hypercube dimension");
  flags.define("epsilon", 1e-10, "target accuracy");
  flags.define("patience", std::int64_t{25}, "LocalStop: quiet rounds required");
  if (!flags.parse(argc, argv)) return 0;
  print_banner("ablation_stopping", "oracle vs. deployable local stopping criterion");

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double epsilon = flags.get_double("epsilon");
  const auto patience = static_cast<std::size_t>(flags.get_int("patience"));
  const auto topology = net::Topology::hypercube(static_cast<std::size_t>(flags.get_int("dims")));
  const auto values = random_inputs(topology.size(), seed);
  const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);

  Table table({"algorithm", "oracle_rounds", "local_rounds", "overhead",
               "true_error_at_local_stop"});
  for (const auto algorithm : {core::Algorithm::kPushFlow, core::Algorithm::kPushCancelFlow,
                               core::Algorithm::kFlowUpdating}) {
    // Oracle run.
    sim::SyncEngineConfig config;
    config.algorithm = algorithm;
    config.seed = seed;
    sim::SyncEngine oracle_engine(topology, masses, config);
    const auto oracle_stats = oracle_engine.run_until_error(epsilon, 100000);

    // Local-detector run (same schedule).
    sim::SyncEngine local_engine(topology, masses, config);
    core::LocalStop detector(topology.size(), epsilon, patience);
    std::size_t local_rounds = 0;
    while (local_rounds < 100000) {
      local_engine.step();
      ++local_rounds;
      for (net::NodeId i = 0; i < topology.size(); ++i) {
        detector.observe(i, local_engine.fleet().estimate(i));
      }
      if (detector.all_converged()) break;
    }

    const double overhead = oracle_stats.rounds == 0
                                ? 0.0
                                : static_cast<double>(local_rounds) /
                                      static_cast<double>(oracle_stats.rounds);
    table.add_row({std::string(core::to_string(algorithm)),
                   Table::num(static_cast<std::int64_t>(oracle_stats.rounds)),
                   Table::num(static_cast<std::int64_t>(local_rounds)),
                   Table::fixed(overhead, 2) + "x", Table::sci(local_engine.max_error())});
  }
  emit(table, flags);
  return 0;
}

}  // namespace
}  // namespace pcf::bench

int main(int argc, char** argv) { return pcf::bench::run(argc, argv); }
