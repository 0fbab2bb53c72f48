// Ablation A6 — all reduction algorithms side by side, plus the classical
// deterministic parallel baseline (recursive doubling).
//
// The paper's scaling claim (Section I): gossip reduction needs
// O(log n + log 1/ε) time where recursive doubling needs O(log n) — a
// constant overhead for machine-precision aggregates. The table reports
// rounds and messages to reach ε on a hypercube for each algorithm, plus the
// exact deterministic baseline.
#include "bench_common.hpp"
#include "core/allreduce.hpp"

namespace pcf::bench {
namespace {

int run(int argc, char** argv) {
  CliFlags flags;
  define_common_flags(flags);
  flags.define("max-dims", std::int64_t{9}, "largest hypercube dimension");
  flags.define("epsilon", 1e-12, "target accuracy for gossip algorithms");
  if (!flags.parse(argc, argv)) return 0;
  print_banner("ablation_baselines",
               "Section I — gossip algorithms vs. deterministic recursive doubling");

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double epsilon = flags.get_double("epsilon");
  const auto max_dims = static_cast<std::size_t>(flags.get_int("max-dims"));

  Table table({"n", "algorithm", "rounds_to_eps", "messages", "reached", "rounds/log2(n)"});
  for (std::size_t dims = 3; dims <= max_dims; dims += 3) {
    const auto topology = net::Topology::hypercube(dims);
    const auto values = random_inputs(topology.size(), seed);
    const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);

    for (const auto algorithm :
         {core::Algorithm::kPushSum, core::Algorithm::kPushFlow,
          core::Algorithm::kPushCancelFlow, core::Algorithm::kFlowUpdating}) {
      sim::SyncEngineConfig config;
      config.algorithm = algorithm;
      config.seed = seed;
      sim::SyncEngine engine(topology, masses, config);
      const auto stats = engine.run_until_error(epsilon, 100000);
      table.add_row({Table::num(static_cast<std::int64_t>(topology.size())),
                     std::string(core::to_string(algorithm)),
                     Table::num(static_cast<std::int64_t>(stats.rounds)),
                     Table::num(static_cast<std::int64_t>(stats.messages_sent)),
                     stats.reached_target ? "yes" : "no",
                     Table::fixed(static_cast<double>(stats.rounds) / static_cast<double>(dims),
                                  1)});
    }
    // Deterministic baseline: exact in log2(n) rounds, but zero fault
    // tolerance — one lost message corrupts the result on many nodes.
    const auto exact = core::recursive_doubling_sum(values);
    table.add_row({Table::num(static_cast<std::int64_t>(topology.size())),
                   "recursive-doubling", Table::num(static_cast<std::int64_t>(exact.rounds)),
                   Table::num(static_cast<std::int64_t>(exact.messages)), "exact",
                   Table::fixed(1.0, 1)});
    std::fflush(stdout);
  }
  emit(table, flags);
  return 0;
}

}  // namespace
}  // namespace pcf::bench

int main(int argc, char** argv) { return pcf::bench::run(argc, argv); }
