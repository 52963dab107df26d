// Fig. 8: cluster-wide peak memory usage split into the in-memory graph vs
// algorithm state (vertex states, queues, the priority mailbox's position
// index, the Alg. 4 send filter's rows, EN/collective buffers), for
// |S| = 1000 and the largest supported sweep point, on LVJ, CLW and WDC.
//
// The paper's observations to reproduce: (i) on the small LVJ, algorithm
// state dominates the graph; (ii) the jump from 1K to 10K seeds is driven by
// the MPI collective buffer over EN (dense (|S| choose 2) items); (iii)
// chunked collectives cut the buffer peak at some runtime cost (§V-F).
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace dsteiner;
  bench::print_header(
      "Fig. 8: peak memory, graph vs algorithm state",
      "paper Fig. 8 (+ §V-F chunking note)",
      "Paper: LVJ |S|=10K algorithm state 35.9x that of |S|=1K; dense EN\n"
      "buffer drives the increase. Sweep point scaled 10K -> 2K (dense\n"
      "buffers are quadratic in |S|).");

  util::table table({"graph", "|S|", "EN mode", "graph mem", "state", "queues",
                     "queue index", "send filter", "EN+G'1", "coll. buffer",
                     "algo total"});
  for (const char* key : {"LVJ", "CLW", "WDC"}) {
    const auto ds = io::load_dataset(key);
    for (const std::size_t s : {1000u, 2000u}) {
      for (const bool chunked : {false, true}) {
        core::solver_config config;
        config.dense_distance_graph = true;  // the paper's representation
        config.allreduce_chunk_items = chunked ? 100000 : 0;
        const auto seeds = bench::default_seeds(ds.graph, s);
        const auto result = core::solve_steiner_tree(ds.graph, seeds, config);
        const auto& mem = result.memory;
        table.add_row(
            {std::string(key) + "-mini", std::to_string(s),
             chunked ? "chunked 100K" : "monolithic",
             util::format_bytes(mem.graph_bytes),
             util::format_bytes(mem.state_bytes + mem.partition_bytes),
             util::format_bytes(mem.queue_peak_bytes),
             util::format_bytes(mem.queue_index_bytes),
             util::format_bytes(mem.send_filter_bytes),
             util::format_bytes(mem.distance_graph_bytes),
             util::format_bytes(mem.collective_buffer_bytes),
             util::format_bytes(mem.algorithm_bytes())});
      }
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape check: quadrupling (|S| choose 2) from 1K to 2K seeds grows the\n"
      "dense EN/collective buffers ~4x while the graph is constant; chunked\n"
      "collectives cap the per-call buffer at the chunk size — the paper's\n"
      "memory/runtime trade-off.\n");
  return 0;
}
