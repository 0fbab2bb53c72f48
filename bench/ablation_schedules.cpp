// Ablation A7 — communication schedule: randomized gossip vs. the regular
// synchronized matching schedule the paper's Fig. 2 idealization assumes.
//
// Under uniform random gossip, a node's weight occasionally decays for a few
// rounds (it pushes halves without being picked), transiently amplifying its
// relative error; under a deterministic matching schedule every node sends
// and receives every round, so weights stay near 1 and both algorithms reach
// lower worst-case error. Flow growth is also schedule-dependent: the random
// schedule transports more net mass per edge.
#include "bench_common.hpp"
#include "sim/schedule.hpp"

namespace pcf::bench {
namespace {

struct MeasuredAccuracy {
  double best_max = 0.0;
  double max_flow = 0.0;
  std::size_t rounds = 0;
};

MeasuredAccuracy measure_matching(const net::Topology& topology,
                                  std::span<const core::Mass> masses, core::Algorithm algorithm,
                                  std::vector<sim::Matching> matchings, std::size_t max_rounds) {
  sim::MatchingScheduleRunner runner(topology, masses, algorithm, std::move(matchings));
  const sim::Oracle oracle(masses);
  MeasuredAccuracy result;
  result.best_max = std::numeric_limits<double>::infinity();
  std::size_t since = 0;
  while (result.rounds < max_rounds && since < 600) {
    runner.run(1);
    ++result.rounds;
    double worst = 0.0;
    for (double e : runner.estimates()) worst = std::max(worst, oracle.error_of(e));
    if (worst < 0.98 * result.best_max) {
      result.best_max = worst;
      since = 0;
    } else {
      ++since;
    }
  }
  for (net::NodeId i = 0; i < topology.size(); ++i) {
    result.max_flow = std::max(result.max_flow, runner.fleet().max_abs_flow_component(i));
  }
  return result;
}

int run(int argc, char** argv) {
  CliFlags flags;
  define_common_flags(flags);
  flags.define("max-dims", std::int64_t{12}, "largest hypercube dimension");
  if (!flags.parse(argc, argv)) return 0;
  print_banner("ablation_schedules",
               "randomized gossip vs. synchronized matching schedule (hypercube)");

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto max_dims = static_cast<std::size_t>(flags.get_int("max-dims"));

  Table table({"n", "algorithm", "gossip_best_max", "matching_best_max", "gossip_max_flow",
               "matching_max_flow"});
  for (std::size_t dims = 6; dims <= max_dims; dims += 3) {
    const auto topology = net::Topology::hypercube(dims);
    const auto values = random_inputs(topology.size(), seed + dims);
    const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);
    for (const auto algorithm :
         {core::Algorithm::kPushFlow, core::Algorithm::kPushCancelFlow}) {
      sim::SyncEngineConfig config;
      config.algorithm = algorithm;
      config.seed = seed;
      sim::SyncEngine engine(topology, masses, config);
      const auto gossip = measure_achievable_accuracy(engine, 20000, 600);
      const auto matching = measure_matching(topology, masses, algorithm,
                                             sim::hypercube_matchings(dims), 20000);
      table.add_row({Table::num(static_cast<std::int64_t>(topology.size())),
                     std::string(core::to_string(algorithm)), Table::sci(gossip.best_max_error),
                     Table::sci(matching.best_max), Table::sci(gossip.max_abs_flow),
                     Table::sci(matching.max_flow)});
      std::fflush(stdout);
    }
  }
  emit(table, flags);
  return 0;
}

}  // namespace
}  // namespace pcf::bench

int main(int argc, char** argv) { return pcf::bench::run(argc, argv); }
