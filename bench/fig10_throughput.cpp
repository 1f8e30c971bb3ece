// Fig. 10: edge generation throughput, and the overhead of the property
// generation stage — including the O(1)-per-edge fast samplers.
//
// Paper shape: PGPBA has the higher throughput; generating the NetFlow
// properties costs ~50% extra for PGPBA and ~30% for PGSK — the property
// stage itself is identical, PGPBA's structure phase is just faster, so
// the same absolute cost is a larger relative overhead. The fast samplers
// push structure throughput higher still, which makes the (identical)
// property stage an even larger relative overhead — the trend the paper's
// overhead argument predicts.
//
// Contenders dispatch through the Generator registry; row labels are
// Generator::name(), never hard-coded strings.
#include <iostream>
#include <map>
#include <string>

#include "bench_support/report.hpp"
#include "common.hpp"
#include "gen/generator.hpp"

int main(int argc, char** argv) {
  using namespace csb;
  print_experiment_header(
      "Fig. 10 — throughput and property-generation overhead",
      "PGPBA > PGSK throughput; property stage adds ~50% (PGPBA) / ~30% "
      "(PGSK) because the same stage cost lands on a faster structure "
      "phase; the fast samplers amplify the effect.");

  const SeedBundle seed = bench::default_seed(bench::scaled(15'000));
  const ClusterConfig cluster_config{.nodes = 60, .cores_per_node = 12};

  const std::map<std::string, std::string> kron_fit = {
      {"fit-iters", "10"}, {"fit-swaps", "300"}, {"fit-burnin", "1000"}};
  struct Contender {
    const Generator* gen;
    std::map<std::string, std::string> extra;
  };
  const std::vector<Contender> contenders = {
      // Kronecker-parity doubling (growth = 1 + fraction).
      {&require_generator("pgpba"), {{"fraction", "1.0"}}},
      {&require_generator("pgpba-fast"), {}},
      {&require_generator("pgsk"), kron_fit},
      {&require_generator("pgsk-fast"), kron_fit},
  };

  ReportTable table("throughput (simulated edges/s)",
                    {"generator", "factor", "edges", "structure_only_eps",
                     "with_props_eps", "property_overhead_pct"});

  for (const std::uint64_t factor : {16, 64}) {
    const std::uint64_t target = factor * seed.graph.num_edges();
    for (const Contender& contender : contenders) {
      ClusterSim cluster(cluster_config);
      GenConfig config;
      config.desired_edges = target;
      config.extra = contender.extra;
      const GenResult result = contender.gen->generate(
          seed.graph, seed.profile, cluster, config);
      // Structure time includes the store emission and seal; the property
      // stage is the separately-metered store:props pass.
      const double total = result.metrics.simulated_seconds;
      const double structure = total - result.property_seconds;
      const double edges = static_cast<double>(result.graph.num_edges());
      table.add_row(
          {std::string(contender.gen->name()), cell_u64(factor),
           cell_u64(result.graph.num_edges()),
           cell_u64(static_cast<std::uint64_t>(edges / structure)),
           cell_u64(static_cast<std::uint64_t>(edges / total)),
           cell_fixed(100.0 * (total - structure) / structure, 1)});
    }
  }
  table.print();
  if (const std::string json = json_output_path(argc, argv); !json.empty()) {
    write_trace_report(json, "fig10_throughput", {&table});
    std::cout << "wrote " << json << " (csb.trace.v1)\n";
  }
  return 0;
}
