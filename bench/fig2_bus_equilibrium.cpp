// Figure 2 / Section II-B — the bus-network case study.
//
// n nodes on a bus, v_0 = n+1 and v_i = 1 elsewhere, averaging (target 2).
// The paper's schematic: at convergence PF's flows transport the prefix
// surplus, f_{i,i+1} = n−1−i (0-based, weightless idealization) — flows grow
// LINEARLY with n while the aggregate stays 2, which is the root cause of
// PF's accuracy loss. In the weighted algorithm the execution-independent
// statement is the cut invariant  f_val − a·f_w = n−1−i  (a = 2).
//
// The table prints, per edge: PF's measured flow, the cut invariant, and the
// Fig. 2 closed form — then the same for PCF, whose flows stay at the data
// scale because converged flows keep being cancelled.
#include <array>

#include "bench_common.hpp"

namespace pcf::bench {
namespace {

std::vector<core::Mass> case_study_masses(std::size_t n) {
  std::vector<core::Mass> masses;
  masses.push_back(core::Mass::scalar(static_cast<double>(n) + 1.0, 1.0));
  for (std::size_t i = 1; i < n; ++i) masses.push_back(core::Mass::scalar(1.0, 1.0));
  return masses;
}

int run(int argc, char** argv) {
  CliFlags flags;
  define_common_flags(flags);
  flags.define("n", std::int64_t{8}, "bus length (paper's schematic uses a generic n)");
  flags.define("rounds", std::int64_t{20000}, "gossip rounds to converge");
  if (!flags.parse(argc, argv)) return 0;
  print_banner("fig2_bus_equilibrium", "Figure 2 — PF equilibrium flows on a bus network");

  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto topology = net::Topology::bus(n);
  const auto masses = case_study_masses(n);

  std::printf("bus of %zu nodes, v_0 = %zu, v_i = 1, average = 2\n\n", n, n + 1);

  Table table({"edge", "PF f_val", "PF f_val - 2*f_w", "closed form n-1-i", "PCF f_val",
               "PCF max|slot|"});
  sim::SyncEngineConfig pf_cfg;
  pf_cfg.algorithm = core::Algorithm::kPushFlow;
  pf_cfg.seed = seed;
  sim::SyncEngine pf(topology, masses, pf_cfg);
  pf.run(rounds);

  sim::SyncEngineConfig pcf_cfg;
  pcf_cfg.algorithm = core::Algorithm::kPushCancelFlow;
  pcf_cfg.seed = seed;
  sim::SyncEngine pcf(topology, masses, pcf_cfg);
  pcf.run(rounds);

  std::array<core::Mass, core::ArenaFleet::kMaxFlowSlots> pf_flows;
  std::array<core::Mass, core::ArenaFleet::kMaxFlowSlots> pcf_slots;
  for (net::NodeId i = 0; i + 1 < n; ++i) {
    (void)pf.fleet().flows_toward(i, i + 1, pf_flows);
    const core::Mass& flow = pf_flows[0];
    (void)pcf.fleet().flows_toward(i, i + 1, pcf_slots);
    const double pcf_biggest =
        std::max({std::abs(pcf_slots[0].s[0]), std::abs(pcf_slots[1].s[0])});
    table.add_row({std::to_string(i) + "-" + std::to_string(i + 1),
                   Table::fixed(flow.s[0], 4), Table::fixed(flow.s[0] - 2.0 * flow.w, 4),
                   Table::num(static_cast<std::int64_t>(n - 1 - i)),
                   Table::fixed(pcf_slots[0].s[0], 4), Table::fixed(pcf_biggest, 4)});
  }
  emit(table, flags);
  std::printf("\nPF max local error: %.3e   PCF max local error: %.3e\n", pf.max_error(),
              pcf.max_error());
  std::printf("PF max |flow|: %.4f (grows ~linearly with n)   PCF max |flow|: %.4f\n",
              pf.max_abs_flow(), pcf.max_abs_flow());
  return 0;
}

}  // namespace
}  // namespace pcf::bench

int main(int argc, char** argv) { return pcf::bench::run(argc, argv); }
