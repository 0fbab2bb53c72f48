#include "accuracy_sweep.hpp"

namespace pcf::bench {

void define_accuracy_flags(CliFlags& flags) {
  define_common_flags(flags);
  flags.define("max-exp", std::int64_t{12},
               "largest log2(n); the paper sweeps to 15 (n = 32768), which takes long on "
               "one machine — pass --max-exp=15 for full scale");
  flags.define("max-rounds", std::int64_t{60000}, "hard per-run round cap");
  flags.define("patience", std::int64_t{800},
               "stop once the best error stopped improving for this many rounds");
}

void run_accuracy_sweep(core::Algorithm algorithm, const CliFlags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto max_exp = static_cast<std::size_t>(flags.get_int("max-exp"));
  const auto max_rounds = static_cast<std::size_t>(flags.get_int("max-rounds"));
  const auto patience = static_cast<std::size_t>(flags.get_int("patience"));

  Table table({"topology", "aggregate", "n", "best_max_error", "best_p99_error",
               "final_median_error", "max_abs_flow", "rounds"});

  struct Family {
    const char* name;
    bool torus;
  };
  for (const Family family : {Family{"3D torus", true}, Family{"hypercube", false}}) {
    for (const auto aggregate : {core::Aggregate::kAverage, core::Aggregate::kSum}) {
      // The paper's x-axis: n = 2^{3i} so both families exist at every point.
      for (std::size_t exp = 3; exp <= max_exp; exp += 3) {
        const std::size_t side = std::size_t{1} << (exp / 3);
        const auto topology = family.torus ? net::Topology::torus3d(side, side, side)
                                           : net::Topology::hypercube(exp);
        const auto values = random_inputs(topology.size(), seed + exp);
        const auto masses = sim::masses_from_values(values, aggregate);
        sim::SyncEngineConfig config;
        config.algorithm = algorithm;
        config.seed = seed;
        sim::SyncEngine engine(topology, masses, config);
        const auto r = measure_achievable_accuracy(engine, max_rounds, patience);
        table.add_row({family.name, std::string(core::to_string(aggregate)),
                       Table::num(static_cast<std::int64_t>(topology.size())),
                       Table::sci(r.best_max_error), Table::sci(r.best_p99_error),
                       Table::sci(r.final_median_error), Table::sci(r.max_abs_flow),
                       Table::num(static_cast<std::int64_t>(r.rounds))});
        std::fflush(stdout);
      }
    }
  }
  emit(table, flags);
}

}  // namespace pcf::bench
