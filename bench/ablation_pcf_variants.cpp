// Ablation A1 — the two PCF bookkeeping variants (Section III-A's closing
// remark).
//
//  fast   : Fig. 5 verbatim — ϕ maintained incrementally, estimate = v − ϕ.
//           Cheapest, but a corrupted flow slot or ϕ never heals.
//  robust : ϕ only absorbs cancelled flows; the estimate re-sums the live
//           slots, so corrupted slots heal at the next delivery (the paper:
//           "active and passive flows have to be included into the
//           computation of the local estimate").
//
// The table shows (1) both variants' achievable accuracy in a clean network
// (near-identical), (2) their recovery after a burst of in-transit packet
// corruption — both heal, because our race-free handshake never absorbs a
// value that is not exactly balanced by the peer — and (3) their recovery
// after a burst of MEMORY soft errors (bits flip in stored flow variables):
// the fast variant's incremental ϕ bakes every corrupted delta in forever,
// while the robust variant re-sums the healed slots and recovers.
#include "bench_common.hpp"

namespace pcf::bench {
namespace {

int run(int argc, char** argv) {
  CliFlags flags;
  define_common_flags(flags);
  flags.define("dims", std::int64_t{6}, "hypercube dimension");
  flags.define("flip-prob", 0.002, "per-message bit-flip probability in the faulty scenario");
  flags.define("rounds", std::int64_t{4000}, "rounds for the faulty scenario");
  if (!flags.parse(argc, argv)) return 0;
  print_banner("ablation_pcf_variants",
               "Section III-A — PCF 'fast' (Fig. 5) vs 'robust' bookkeeping");

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto dims = static_cast<std::size_t>(flags.get_int("dims"));
  const auto topology = net::Topology::hypercube(dims);
  const auto values = random_inputs(topology.size(), seed);
  const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);

  Table table({"variant", "clean_best_error", "after_packet_flip_burst",
               "after_memory_flip_burst", "packet_flips", "memory_flips"});
  const auto burst_rounds = static_cast<std::size_t>(flags.get_int("rounds"));
  for (const auto variant : {core::PcfVariant::kFast, core::PcfVariant::kRobust}) {
    sim::SyncEngineConfig config;
    config.algorithm = core::Algorithm::kPushCancelFlow;
    config.reducer.pcf_variant = variant;
    config.seed = seed;
    sim::SyncEngine clean(topology, masses, config);
    const auto clean_result = measure_achievable_accuracy(clean, 20000);

    // Packet-corruption burst, then a clean recovery phase twice as long.
    config.faults.bit_flip_prob = flags.get_double("flip-prob");
    sim::SyncEngine packet_burst(topology, masses, config);
    packet_burst.run(burst_rounds);
    packet_burst.mutable_faults().bit_flip_prob = 0.0;
    packet_burst.run(2 * burst_rounds);
    const double after_packet = packet_burst.max_error();

    // Memory-corruption burst (bits flip in stored flow variables).
    config.faults.bit_flip_prob = 0.0;
    config.faults.state_flip_prob = flags.get_double("flip-prob");
    sim::SyncEngine memory_burst(topology, masses, config);
    memory_burst.run(burst_rounds);
    memory_burst.mutable_faults().state_flip_prob = 0.0;
    memory_burst.run(2 * burst_rounds);
    const double after_memory = memory_burst.max_error();

    table.add_row(
        {std::string(core::to_string(variant)), Table::sci(clean_result.best_max_error),
         Table::sci(after_packet), Table::sci(after_memory),
         Table::num(static_cast<std::int64_t>(packet_burst.stats().messages_flipped)),
         Table::num(static_cast<std::int64_t>(memory_burst.stats().state_flips))});
  }
  emit(table, flags);
  return 0;
}

}  // namespace
}  // namespace pcf::bench

int main(int argc, char** argv) { return pcf::bench::run(argc, argv); }
