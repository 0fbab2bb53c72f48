// Ablation A5 — google-benchmark micro benchmarks: per-round cost of each
// algorithm (simulation engine throughput) and per-packet protocol cost.
// These quantify the constant-factor overhead PCF's double flow slots and
// handshake add over PF and push-sum.
#include <benchmark/benchmark.h>

#include "core/arena.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"

namespace {

using namespace pcf;

void engine_round(benchmark::State& state, core::Algorithm algorithm) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const auto topology = net::Topology::hypercube(dims);
  Rng rng(42);
  std::vector<double> values(topology.size());
  for (auto& v : values) v = rng.uniform();
  const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);
  sim::SyncEngineConfig config;
  config.algorithm = algorithm;
  config.seed = 1;
  sim::SyncEngine engine(topology, masses, config);
  for (auto _ : state) {
    engine.step();
    benchmark::DoNotOptimize(engine.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(topology.size()));
  state.SetLabel(std::to_string(topology.size()) + " nodes");
}

void BM_RoundPushSum(benchmark::State& state) { engine_round(state, core::Algorithm::kPushSum); }
void BM_RoundPushFlow(benchmark::State& state) {
  engine_round(state, core::Algorithm::kPushFlow);
}
void BM_RoundPushCancelFlow(benchmark::State& state) {
  engine_round(state, core::Algorithm::kPushCancelFlow);
}
void BM_RoundFlowUpdating(benchmark::State& state) {
  engine_round(state, core::Algorithm::kFlowUpdating);
}

BENCHMARK(BM_RoundPushSum)->Arg(6)->Arg(10);
BENCHMARK(BM_RoundPushFlow)->Arg(6)->Arg(10);
BENCHMARK(BM_RoundPushCancelFlow)->Arg(6)->Arg(10);
BENCHMARK(BM_RoundFlowUpdating)->Arg(6)->Arg(10);

void BM_PacketExchange(benchmark::State& state) {
  // One send+receive on a single edge, vector payload of kMaxDim components —
  // the inner loop of everything.
  const auto algorithm = static_cast<core::Algorithm>(state.range(0));
  const auto topology = net::Topology::bus(2);
  const core::Values payload(core::kMaxDim, 1.0);
  const std::vector<core::Mass> masses(2, core::Mass(payload, 1.0));
  core::ArenaFleet fleet(algorithm, {}, topology, masses);
  for (auto _ : state) {
    auto out = fleet.make_message_to(0, 1);
    fleet.receive(1, 0, out->packet);
    auto back = fleet.make_message_to(1, 0);
    fleet.receive(0, 1, back->packet);
    benchmark::DoNotOptimize(fleet.estimate(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

BENCHMARK(BM_PacketExchange)
    ->Arg(static_cast<int>(core::Algorithm::kPushSum))
    ->Arg(static_cast<int>(core::Algorithm::kPushFlow))
    ->Arg(static_cast<int>(core::Algorithm::kPushCancelFlow))
    ->Arg(static_cast<int>(core::Algorithm::kFlowUpdating));

void BM_VectorReduction(benchmark::State& state) {
  // End-to-end batched reduction (the dmGS building block): dim-16 payload on
  // a 6D hypercube to 1e-12.
  const auto topology = net::Topology::hypercube(6);
  Rng rng(7);
  std::vector<core::Values> values(topology.size());
  for (auto& v : values) {
    v = core::Values(core::kMaxDim);
    for (auto& x : v) x = rng.uniform();
  }
  for (auto _ : state) {
    sim::ReduceOptions options;
    options.aggregate = core::Aggregate::kSum;
    options.target_accuracy = 1e-12;
    options.max_rounds = 2000;
    options.seed = 3;
    const auto result = sim::reduce_vectors(topology, values, options);
    benchmark::DoNotOptimize(result.rounds);
  }
}

BENCHMARK(BM_VectorReduction)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
