// Ablation A8 — live monitoring (extension; dynamic-data scenario of the
// LiMoSense line of work the paper cites as related).
//
// Inputs drift continuously: every `interval` rounds a random node's value
// changes. The table reports the tracking error (time-averaged max local
// error in the steady drift regime) per algorithm. Flow-based algorithms
// track a moving aggregate seamlessly — the update only perturbs the node's
// input, never the flow state — while push-sum tracks too but drops accuracy
// permanently on every message loss.
#include "bench_common.hpp"
#include "support/stats.hpp"

namespace pcf::bench {
namespace {

int run(int argc, char** argv) {
  CliFlags flags;
  define_common_flags(flags);
  flags.define("dims", std::int64_t{5}, "hypercube dimension");
  flags.define("interval", std::int64_t{40}, "rounds between data updates");
  flags.define("updates", std::int64_t{50}, "number of updates");
  flags.define("loss", 0.05, "message loss probability");
  if (!flags.parse(argc, argv)) return 0;
  print_banner("ablation_live_updates",
               "dynamic monitoring: tracking a drifting aggregate (with 5% message loss)");

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto interval = static_cast<std::size_t>(flags.get_int("interval"));
  const auto updates = static_cast<std::size_t>(flags.get_int("updates"));
  const auto topology = net::Topology::hypercube(static_cast<std::size_t>(flags.get_int("dims")));
  const auto values = random_inputs(topology.size(), seed);
  const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);

  // The drift plan: a random node's value steps by ±1 every `interval` rounds.
  Rng drift_rng(seed ^ 0xd21f7);
  sim::FaultPlan plan;
  plan.message_loss_prob = flags.get_double("loss");
  for (std::size_t k = 1; k <= updates; ++k) {
    plan.data_updates.push_back(
        {static_cast<double>(k * interval),
         static_cast<net::NodeId>(drift_rng.below(topology.size())),
         core::Mass::scalar(drift_rng.chance(0.5) ? 1.0 : -1.0, 0.0)});
  }

  Table table({"algorithm", "tracking_error(mean max)", "tracking_error(worst)",
               "error_just_before_update", "final_error"});
  for (const auto algorithm :
       {core::Algorithm::kPushSum, core::Algorithm::kPushFlow,
        core::Algorithm::kPushCancelFlow, core::Algorithm::kFlowUpdating}) {
    sim::SyncEngineConfig config;
    config.algorithm = algorithm;
    config.seed = seed;
    config.faults = plan;
    sim::SyncEngine engine(topology, masses, config);
    engine.run(interval);  // settle before the drift starts

    RunningStats tracking;
    RunningStats pre_update;
    for (std::size_t k = 1; k <= updates; ++k) {
      for (std::size_t r = 0; r < interval; ++r) {
        engine.step();
        tracking.add(engine.max_error());
      }
      pre_update.add(engine.max_error());
    }
    engine.run(400);  // drain after the drift stops
    table.add_row({std::string(core::to_string(algorithm)), Table::sci(tracking.mean()),
                   Table::sci(tracking.max()), Table::sci(pre_update.mean()),
                   Table::sci(engine.max_error())});
    std::fflush(stdout);
  }
  emit(table, flags);
  return 0;
}

}  // namespace
}  // namespace pcf::bench

int main(int argc, char** argv) { return pcf::bench::run(argc, argv); }
