// Ablation A2 — soft errors: message loss and bit flips (Section II-A
// discusses these failure classes; the paper plots no sweep, so this is an
// extension).
//
// Push-sum violates mass conservation on the first lost message and converges
// to a WRONG value; the flow-based algorithms (PF, PCF, Flow Updating)
// re-establish pairwise conservation at the next successful delivery and
// converge correctly — message loss only slows them down.
#include "bench_common.hpp"

namespace pcf::bench {
namespace {

int run(int argc, char** argv) {
  CliFlags flags;
  define_common_flags(flags);
  flags.define("dims", std::int64_t{5}, "hypercube dimension");
  flags.define("rounds", std::int64_t{6000}, "rounds per scenario");
  if (!flags.parse(argc, argv)) return 0;
  print_banner("ablation_soft_errors",
               "Section II-A — convergence under message loss and bit flips");

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds"));
  const auto topology = net::Topology::hypercube(static_cast<std::size_t>(flags.get_int("dims")));
  const auto values = random_inputs(topology.size(), seed);
  const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);

  Table table({"algorithm", "loss_prob", "flip_prob", "final_max_error", "dropped", "flipped"});
  const std::vector<core::Algorithm> algorithms{
      core::Algorithm::kPushSum, core::Algorithm::kPushFlow, core::Algorithm::kPushCancelFlow,
      core::Algorithm::kFlowUpdating};
  struct Scenario {
    double loss;
    double flip;
  };
  const std::vector<Scenario> scenarios{{0.0, 0.0}, {0.01, 0.0}, {0.1, 0.0},
                                        {0.3, 0.0}, {0.0, 0.001}};
  for (const auto algorithm : algorithms) {
    for (const auto& scenario : scenarios) {
      sim::SyncEngineConfig config;
      config.algorithm = algorithm;
      config.seed = seed;
      config.faults.message_loss_prob = scenario.loss;
      config.faults.bit_flip_prob = scenario.flip;
      sim::SyncEngine engine(topology, masses, config);
      engine.run(rounds);
      table.add_row({std::string(core::to_string(algorithm)), Table::fixed(scenario.loss, 2),
                     Table::fixed(scenario.flip, 3), Table::sci(engine.max_error()),
                     Table::num(static_cast<std::int64_t>(engine.stats().messages_dropped)),
                     Table::num(static_cast<std::int64_t>(engine.stats().messages_flipped))});
    }
    std::fflush(stdout);
  }
  emit(table, flags);
  return 0;
}

}  // namespace
}  // namespace pcf::bench

int main(int argc, char** argv) { return pcf::bench::run(argc, argv); }
