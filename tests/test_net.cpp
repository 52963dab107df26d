// The distributed transport subsystem (src/runtime/net/): wire-format
// round-trips and strict rejection, loopback mesh semantics, the termination
// vote, and the headline guarantee — a distributed solve over any world size
// and either backend is bit-identical to the single-process solver.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/steiner_solver.hpp"
#include "core/validation.hpp"
#include "graph/generators.hpp"
#include "io/dataset.hpp"
#include "obs/trace.hpp"
#include "runtime/net/cluster_telemetry.hpp"
#include "runtime/net/dist_solver.hpp"
#include "runtime/net/frame.hpp"
#include "runtime/net/loopback_backend.hpp"
#include "runtime/net/tcp_backend.hpp"
#include "runtime/net/termination.hpp"
#include "util/cancellation.hpp"
#include "util/random.hpp"

namespace {

using namespace dsteiner;
using namespace dsteiner::runtime::net;
using graph::vertex_id;
using graph::weight_t;
namespace phase_names = runtime::phase_names;

graph::csr_graph make_connected_graph(int n, weight_t w_hi,
                                      std::uint64_t seed) {
  graph::edge_list list =
      graph::generate_erdos_renyi(n, static_cast<std::uint64_t>(n) * 3, seed);
  graph::assign_uniform_weights(list, 1, w_hi, seed ^ 0x99);
  graph::connect_components(list, w_hi + 1, seed);
  return graph::csr_graph(list);
}

std::vector<vertex_id> pick_seeds(const graph::csr_graph& g, std::size_t count,
                                  std::uint64_t seed) {
  util::rng gen(seed);
  const auto picks =
      util::sample_without_replacement(g.num_vertices(), count, gen);
  return {picks.begin(), picks.end()};
}

// ---- frame round-trips ------------------------------------------------------

TEST(NetFrame, VisitorBatchRoundTrip) {
  const std::vector<core::voronoi_visitor> in{
      {1, 2, 3, 4},
      {graph::k_no_vertex, graph::k_no_vertex, 0, graph::k_inf_distance},
      {42, 0, 7, 123456789}};
  const frame f = encode_visitor_batch(in);
  EXPECT_EQ(f.type, frame_type::visitor_batch);
  EXPECT_EQ(f.payload.size(), in.size() * 32);
  EXPECT_EQ(decode_visitor_batch(f), in);
}

TEST(NetFrame, GhostAndWalkAndEdgeRoundTrip) {
  const std::vector<ghost_label> ghosts{{5, 2, 17}, {9, 9, 0}};
  EXPECT_EQ(decode_ghost_batch(encode_ghost_batch(ghosts)), ghosts);

  const std::vector<vertex_id> walk{0, 7, graph::k_no_vertex};
  EXPECT_EQ(decode_walk_batch(encode_walk_batch(walk)), walk);

  const std::vector<graph::weighted_edge> edges{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(decode_edge_batch(encode_edge_batch(edges)), edges);
}

TEST(NetFrame, EnEntryRoundTrip) {
  const std::vector<wire_en_entry> in{{1, 2, 30, 4, 5, 6},
                                      {7, 8, 90, 10, 11, 12}};
  const frame f = encode_en_batch(in);
  EXPECT_EQ(f.payload.size(), in.size() * 48);
  EXPECT_EQ(decode_en_batch(f), in);
}

TEST(NetFrame, VoteRoundTrip) {
  superstep_vote vote;
  vote.outstanding = 123;
  vote.superstep = 17;
  vote.cancel = 1;
  vote.max_work = 2.5;
  vote.min_priority = 0x0123456789abcdefull;
  const frame f = encode_vote(vote);
  EXPECT_EQ(f.type, frame_type::vote);
  EXPECT_EQ(f.payload.size(), 29u);
  EXPECT_EQ(decode_vote(f), vote);

  // A vote in the format before min_priority (21 bytes) is not a vote.
  frame old = f;
  old.payload.resize(21);
  EXPECT_THROW((void)decode_vote(old), wire_error);
}

TEST(NetFrame, MarkerAndHelloRoundTrip) {
  EXPECT_EQ(decode_marker(make_marker(99)), 99u);
  int rank = -1;
  int world = -1;
  decode_hello(encode_hello(3, 8), rank, world);
  EXPECT_EQ(rank, 3);
  EXPECT_EQ(world, 8);
}

TEST(NetFrame, WholeFrameEncodeDecode) {
  const std::vector<core::voronoi_visitor> in{{1, 2, 3, 4}};
  const frame f = encode_visitor_batch(in);
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  EXPECT_EQ(bytes.size(), k_header_bytes + f.payload.size());
  const frame back = decode_frame(bytes);
  EXPECT_EQ(back.type, f.type);
  EXPECT_EQ(back.payload, f.payload);
}

TEST(NetFrame, TelemetryRoundTrip) {
  rank_telemetry in;
  in.rank = 2;
  in.phase = static_cast<std::uint8_t>(telemetry_phase::voronoi);
  in.superstep = 17;
  in.visitors = 12345;
  in.ghost_labels = 77;
  in.compute_nanos = 1111;
  in.send_flush_nanos = 222;
  in.recv_wait_nanos = 3333;
  in.peers = {{3, 480, 2, 320}, {0, 0, 0, 0}, {7, 9000, 1, 64}};

  const frame f = encode_telemetry(in);
  EXPECT_EQ(f.type, frame_type::telemetry);
  EXPECT_EQ(f.payload.size(), 53u + in.peers.size() * 24);
  EXPECT_EQ(decode_telemetry(f), in);
  // Whole-frame trip (what actually crosses the wire to rank 0).
  EXPECT_EQ(decode_telemetry(decode_frame(encode_frame(f))), in);

  EXPECT_EQ(in.total_nanos(), 1111u + 222u + 3333u);
  EXPECT_EQ(in.comm_nanos(), 222u + 3333u);
}

TEST(NetFrame, TelemetryRejectsTruncationAndBadPhase) {
  rank_telemetry sample;
  sample.phase = static_cast<std::uint8_t>(telemetry_phase::tree_walk);
  sample.peers.resize(2);

  frame truncated = encode_telemetry(sample);
  truncated.payload.pop_back();  // partial peer record
  EXPECT_THROW((void)decode_telemetry(truncated), wire_error);

  frame short_peers = encode_telemetry(sample);
  short_peers.payload.resize(short_peers.payload.size() - 24);  // count lies
  EXPECT_THROW((void)decode_telemetry(short_peers), wire_error);

  frame bad_phase = encode_telemetry(sample);
  bad_phase.payload[4] = 0;  // phase byte below the enum range
  EXPECT_THROW((void)decode_telemetry(bad_phase), wire_error);
  bad_phase.payload[4] = 99;  // and above it
  EXPECT_THROW((void)decode_telemetry(bad_phase), wire_error);

  // A sample in the old format, with a vote timer, carries 8 more bytes
  // before the peer count; for any value of the timer, the length check
  // rejects it.
  for (const std::uint8_t vote_byte : {0, 1, 255}) {
    frame old = encode_telemetry(sample);
    old.payload.insert(old.payload.begin() + 49, 8, vote_byte);
    EXPECT_THROW((void)decode_telemetry(old), wire_error);
  }

  EXPECT_THROW((void)decode_telemetry(make_marker(0)), wire_error);
}

// ---- strict rejection -------------------------------------------------------

TEST(NetFrame, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> bytes(k_header_bytes - 1, 0);
  EXPECT_THROW((void)decode_header(bytes), wire_error);
}

TEST(NetFrame, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = encode_frame(make_marker(0));
  bytes[0] ^= 0xFF;
  EXPECT_THROW((void)decode_frame(bytes), wire_error);
}

TEST(NetFrame, RejectsOversizedLength) {
  std::vector<std::uint8_t> bytes = encode_frame(make_marker(0));
  // Patch the length field beyond k_max_payload_bytes.
  const std::uint32_t huge = k_max_payload_bytes + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  }
  EXPECT_THROW((void)decode_header(bytes), wire_error);
}

TEST(NetFrame, RejectsUnknownType) {
  std::vector<std::uint8_t> bytes = encode_frame(make_marker(0));
  // Below the enum, the retired confirm vote, just past it, far past it.
  for (const std::uint8_t type : {0, 9, 12, 200}) {
    bytes[2] = type;
    EXPECT_THROW((void)decode_header(bytes), wire_error) << int{type};
  }
}

TEST(NetFrame, RejectsTruncatedAndTrailingPayload) {
  const std::vector<std::uint8_t> bytes =
      encode_frame(encode_visitor_batch(std::vector<core::voronoi_visitor>{{1, 2, 3, 4}}));
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_THROW((void)decode_frame(truncated), wire_error);
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_frame(trailing), wire_error);
}

TEST(NetFrame, RejectsPartialRecords) {
  frame f = encode_visitor_batch(std::vector<core::voronoi_visitor>{{1, 2, 3, 4}});
  f.payload.pop_back();  // 31 bytes: not a whole 32-byte record
  EXPECT_THROW((void)decode_visitor_batch(f), wire_error);
}

TEST(NetFrame, RejectsWrongType) {
  const frame f = make_marker(0);
  EXPECT_THROW((void)decode_visitor_batch(f), wire_error);
  EXPECT_THROW((void)decode_vote(f), wire_error);
}

TEST(NetFrame, VisitorKindsTravelInThePredWord) {
  using kind = core::voronoi_visitor::kind_t;
  core::voronoi_visitor relay{5, 9, 2, 40, kind::relay};
  const std::vector<core::voronoi_visitor> in{
      {1, graph::k_no_vertex, 3, 4}, relay};
  const frame f = encode_visitor_batch(in);
  EXPECT_EQ(f.payload.size(), in.size() * 32);
  const std::vector<core::voronoi_visitor> out = decode_visitor_batch(f);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out[0], in[0]);
  // Relays never read vp, so it does not travel.
  relay.vp = 0;
  EXPECT_EQ(out[1], relay);

  // The second word of a record is the tagged one: byte 15 holds the tag
  // bit, bytes 12-14 the kind.
  frame unknown = encode_visitor_batch(std::vector<core::voronoi_visitor>{relay});
  for (const std::uint8_t bad_kind : {2, 3}) {  // only relay (1) is tagged
    unknown.payload[12] = bad_kind;
    EXPECT_THROW((void)decode_visitor_batch(unknown), wire_error);
  }
  frame relay_low_word = encode_visitor_batch(std::vector{relay});
  relay_low_word.payload[8] = 1;  // the low word of a relay tag must be 0
  EXPECT_THROW((void)decode_visitor_batch(relay_low_word), wire_error);
  // A normal visitor's pred must stay clear of the tag range.
  const core::voronoi_visitor tagged_pred{1, (1ull << 63) | 5, 3, 4};
  EXPECT_THROW((void)encode_visitor_batch(std::vector{tagged_pred}),
               wire_error);
}

// Seeded mutation fuzz over every decoder: truncated, extended and
// byte-flipped copies of valid frames either decode or raise wire_error —
// never another exception.
TEST(NetFrame, MutatedFramesOnlyRaiseWireError) {
  rank_telemetry sample;
  sample.phase = static_cast<std::uint8_t>(telemetry_phase::tree_walk);
  sample.peers = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  superstep_vote vote;
  vote.outstanding = 4;
  vote.max_work = 2.5;
  vote.min_priority = 1206;

  struct codec {
    const char* name;
    frame valid;
    std::function<void(const frame&)> decode;
  };
  const std::vector<codec> codecs{
      {"hello", encode_hello(1, 3),
       [](const frame& f) {
         int rank = 0;
         int world = 0;
         decode_hello(f, rank, world);
       }},
      {"visitor",
       encode_visitor_batch(std::vector<core::voronoi_visitor>{
           {1, 2, 3, 4},
           {5, 9, 2, 40, core::voronoi_visitor::kind_t::relay},
           {6, graph::k_no_vertex, 2, 41}}),
       [](const frame& f) { (void)decode_visitor_batch(f); }},
      {"walk", encode_walk_batch(std::vector<vertex_id>{1, 2, 3}),
       [](const frame& f) { (void)decode_walk_batch(f); }},
      {"ghost", encode_ghost_batch(std::vector<ghost_label>{{1, 2, 3}}),
       [](const frame& f) { (void)decode_ghost_batch(f); }},
      {"en", encode_en_batch(std::vector<wire_en_entry>{{1, 2, 3, 4, 5, 6}}),
       [](const frame& f) { (void)decode_en_batch(f); }},
      {"edge",
       encode_edge_batch(std::vector<graph::weighted_edge>{{1, 2, 3}}),
       [](const frame& f) { (void)decode_edge_batch(f); }},
      {"vote", encode_vote(vote),
       [](const frame& f) { (void)decode_vote(f); }},
      {"marker", make_marker(7),
       [](const frame& f) { (void)decode_marker(f); }},
      {"telemetry", encode_telemetry(sample),
       [](const frame& f) { (void)decode_telemetry(f); }},
  };

  util::rng gen(0xF422);
  const auto only_wire_errors = [](const std::string& what,
                                   const std::function<void()>& fn) {
    try {
      fn();
    } catch (const wire_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what();
    }
  };
  constexpr int k_iterations = 400;
  for (const codec& c : codecs) {
    ASSERT_NO_THROW(c.decode(c.valid)) << c.name;
    const std::vector<std::uint8_t> wire = encode_frame(c.valid);
    for (int i = 0; i < k_iterations; ++i) {
      std::vector<std::uint8_t> bytes = wire;
      switch (gen.uniform(0, 2)) {
        case 0:  // truncate
          bytes.resize(gen.uniform(0, bytes.size() - 1));
          break;
        case 1:  // extend
          for (std::uint64_t k = gen.uniform(1, 40); k > 0; --k) {
            bytes.push_back(static_cast<std::uint8_t>(gen.uniform(0, 255)));
          }
          break;
        default:  // flip 1-4 bytes
          for (std::uint64_t k = gen.uniform(1, 4); k > 0; --k) {
            bytes[gen.uniform(0, bytes.size() - 1)] ^=
                static_cast<std::uint8_t>(gen.uniform(1, 255));
          }
      }
      const std::string what =
          std::string(c.name) + " mutation " + std::to_string(i);
      only_wire_errors(what, [&] { (void)decode_header(bytes); });
      only_wire_errors(what, [&] { c.decode(decode_frame(bytes)); });
      // The same bytes past the header, as a payload of the right type.
      frame payload_only{c.valid.type, {}};
      if (bytes.size() > k_header_bytes) {
        payload_only.payload.assign(bytes.begin() + k_header_bytes,
                                    bytes.end());
      }
      only_wire_errors(what, [&] { c.decode(payload_only); });
    }
  }
}

// ---- loopback mesh ----------------------------------------------------------

TEST(NetLoopback, DeliversPerPeerFifoWithStats) {
  loopback_mesh mesh(3);
  comm_backend& a = mesh.endpoint(0);
  comm_backend& b = mesh.endpoint(1);

  a.send(1, make_marker(1));
  a.send(1, make_marker(2));
  int from = -1;
  frame f;
  ASSERT_TRUE(b.recv(from, f));
  EXPECT_EQ(from, 0);
  EXPECT_EQ(decode_marker(f), 1u);
  ASSERT_TRUE(b.recv(from, f));
  EXPECT_EQ(decode_marker(f), 2u);

  EXPECT_EQ(a.stats().frames_sent, 2u);
  EXPECT_EQ(a.stats().bytes_sent, 2 * (k_header_bytes + 4));
  EXPECT_EQ(b.stats().frames_received, 2u);

  mesh.close_all();
  EXPECT_FALSE(b.recv(from, f));
  EXPECT_THROW(a.send(1, make_marker(3)), wire_error);
}

TEST(NetLoopback, DrainsPendingFramesAfterClose) {
  loopback_mesh mesh(2);
  mesh.endpoint(0).send(1, make_marker(7));
  mesh.close_all();
  int from = -1;
  frame f;
  ASSERT_TRUE(mesh.endpoint(1).recv(from, f));
  EXPECT_EQ(decode_marker(f), 7u);
  EXPECT_FALSE(mesh.endpoint(1).recv(from, f));
}

TEST(NetTermination, OneRoundVoteClosesDataStreamsAndStopsWhenAllIdle) {
  constexpr int k_world = 3;
  loopback_mesh mesh(k_world);
  std::vector<std::vector<vote_decision>> decisions(k_world);
  std::vector<std::vector<int>> data_from(k_world);  // per rank: senders
  const auto rank_main = [&](int rank) {
    peer_channels chans(mesh.endpoint(rank));
    const auto on_data = [&](int from, frame& f) {
      EXPECT_EQ(decode_visitor_batch(f).size(), 1u);
      data_from[static_cast<std::size_t>(rank)].push_back(from);
    };
    auto& mine = decisions[static_cast<std::size_t>(rank)];
    // Superstep 0: rank 2 sends one visitor to rank 0 and votes it
    // outstanding; every other rank is idle.
    superstep_vote vote;
    if (rank == 2) {
      mesh.endpoint(2).send(0, encode_visitor_batch(
                                   std::vector<core::voronoi_visitor>{
                                       {1, 2, 3, 40}}));
      vote.outstanding = 1;
      vote.min_priority = 40;
    }
    mine.push_back(vote_round(chans, vote, on_data));
    // Superstep 1: every rank idle.
    vote = superstep_vote{};
    vote.superstep = 1;
    mine.push_back(vote_round(chans, vote, on_data));
  };
  std::vector<std::thread> peers;
  for (int rank = 1; rank < k_world; ++rank) peers.emplace_back(rank_main, rank);
  rank_main(0);
  for (std::thread& t : peers) t.join();

  for (int rank = 0; rank < k_world; ++rank) {
    const auto& mine = decisions[static_cast<std::size_t>(rank)];
    ASSERT_EQ(mine.size(), 2u);
    // One rank's send in flight keeps every rank going, and every rank
    // leaves with its priority.
    EXPECT_FALSE(mine[0].stop) << rank;
    EXPECT_EQ(mine[0].min_priority, 40u) << rank;
    // All idle: every rank stops after one round.
    EXPECT_TRUE(mine[1].stop) << rank;
    // One vote per peer per round, and rank 2's data frame: no other round.
    EXPECT_EQ(mesh.endpoint(rank).stats().frames_sent,
              2u * (k_world - 1) + (rank == 2 ? 1 : 0))
        << rank;
  }
  // The data frame sent before rank 2's vote reached rank 0's on_data.
  EXPECT_EQ(data_from[0], std::vector<int>{2});
  EXPECT_TRUE(data_from[1].empty());
  EXPECT_TRUE(data_from[2].empty());
}

// ---- distributed bit-identity ----------------------------------------------

void expect_identical(const core::steiner_result& a,
                      const core::steiner_result& b) {
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  EXPECT_EQ(a.total_distance, b.total_distance);
  EXPECT_EQ(a.num_seeds, b.num_seeds);
  EXPECT_EQ(a.spans_all_seeds, b.spans_all_seeds);
}

TEST(NetDistSolve, LoopbackMatchesSingleProcessAcrossWorldSizes) {
  for (const std::uint64_t graph_seed : {11ull, 23ull}) {
    const graph::csr_graph g = make_connected_graph(300, 40, graph_seed);
    const auto seeds = pick_seeds(g, 7, graph_seed ^ 0xF00);
    core::solver_config config;
    config.validate = true;
    const auto reference = core::solve_steiner_tree(g, seeds, config);
    for (const int world : {1, 2, 3, 5}) {
      std::vector<net_solve_report> reports;
      const auto distributed =
          solve_loopback(g, seeds, config, world, &reports);
      expect_identical(distributed, reference);
      ASSERT_EQ(reports.size(), static_cast<std::size_t>(world));
      if (world > 1) {
        std::uint64_t measured = 0;
        for (const auto& r : reports) measured += r.stats.bytes_sent;
        EXPECT_GT(measured, 0u);
        EXPECT_EQ(reports[0].supersteps, reports[1].supersteps);
      }
    }
  }
}

TEST(NetDistSolve, RmatGraphMatches) {
  graph::rmat_params params;
  params.scale = 8;
  params.edge_factor = 8;
  params.seed = 5;
  graph::edge_list list = graph::generate_rmat(params);
  graph::assign_uniform_weights(list, 1, 20, 0x5EED);
  graph::connect_components(list, 21, 5);
  const graph::csr_graph g(list);
  const auto seeds = pick_seeds(g, 6, 42);

  core::solver_config config;
  config.validate = true;
  const auto reference = core::solve_steiner_tree(g, seeds, config);
  expect_identical(solve_loopback(g, seeds, config, 4), reference);
}

TEST(NetDistSolve, DisconnectedSeedsForestWhenAllowed) {
  // Two components: path 0-1-2 and path 3-4-5.
  graph::edge_list list(6);
  list.add_undirected_edge(0, 1, 3);
  list.add_undirected_edge(1, 2, 4);
  list.add_undirected_edge(3, 4, 5);
  list.add_undirected_edge(4, 5, 6);
  const graph::csr_graph g(list);
  const std::vector<vertex_id> seeds{0, 2, 3, 5};
  core::solver_config config;
  config.allow_disconnected_seeds = true;
  config.validate = true;
  const auto reference = core::solve_steiner_tree(g, seeds, config);
  for (const int world : {2, 3}) {
    const auto forest = solve_loopback(g, seeds, config, world);
    EXPECT_FALSE(forest.spans_all_seeds);
    EXPECT_EQ(forest.total_distance, 3u + 4u + 5u + 6u);
    expect_identical(forest, reference);
  }
}

TEST(NetDistSolve, PhaseAccountingMatchesCore) {
  const io::dataset ds = io::load_dataset("FRS", -4);
  const auto seeds = pick_seeds(ds.graph, 12, 0x5EED);
  constexpr int k_world = 3;
  core::solver_config config;
  config.num_ranks = k_world;
  config.allow_disconnected_seeds = true;
  config.delegate_threshold = 64;  // give the partition some hubs
  const auto reference = core::solve_steiner_tree(ds.graph, seeds, config);
  const auto distributed = solve_loopback(ds.graph, seeds, config, k_world);
  expect_identical(distributed, reference);

  for (const char* name : {phase_names::mst, phase_names::pruning}) {
    const runtime::phase_metrics* net = distributed.phases.find(name);
    const runtime::phase_metrics* core = reference.phases.find(name);
    ASSERT_NE(net, nullptr) << name;
    ASSERT_NE(core, nullptr) << name;
    EXPECT_EQ(net->collective_bytes, core->collective_bytes) << name;
    EXPECT_DOUBLE_EQ(net->sim_units, core->sim_units) << name;
  }
  EXPECT_GT(distributed.phases.find(phase_names::voronoi)->sim_units, 0.0);
  EXPECT_GT(distributed.phases.find(phase_names::tree_edge)->sim_units, 0.0);
  EXPECT_GT(reference.delegate_count, 0u);
  EXPECT_EQ(distributed.delegate_count, reference.delegate_count);
  // Dominance-filter rows: one per simulated rank in-process, one per net
  // rank.
  const std::uint64_t row = ds.graph.num_vertices() * sizeof(graph::weight_t);
  EXPECT_EQ(reference.memory.send_filter_bytes, k_world * row);
  EXPECT_EQ(distributed.memory.send_filter_bytes, row);
}

TEST(NetDistSolve, SingleSeedAndDuplicateSeeds) {
  const graph::csr_graph g = make_connected_graph(60, 10, 3);
  const auto one = solve_loopback(g, std::vector<vertex_id>{5}, {}, 2);
  EXPECT_TRUE(one.tree_edges.empty());
  EXPECT_EQ(one.num_seeds, 1u);

  const auto dup =
      solve_loopback(g, std::vector<vertex_id>{5, 9, 5, 9, 12}, {}, 2);
  const auto reference =
      core::solve_steiner_tree(g, std::vector<vertex_id>{5, 9, 12});
  expect_identical(dup, reference);
}

TEST(NetDistSolve, CancelledBudgetUnwindsAllRanks) {
  const graph::csr_graph g = make_connected_graph(200, 20, 9);
  const auto seeds = pick_seeds(g, 5, 1);
  util::cancel_source source;
  source.request_cancel();
  util::run_budget budget;
  budget.cancel = source.token();
  core::solver_config config;
  config.budget = &budget;
  EXPECT_THROW((void)solve_loopback(g, seeds, config, 3),
               util::operation_cancelled);
}

/// One rank's endpoint that dies at its `kill_at`-th send: that send closes
/// the mesh and throws, as a rank process exiting mid-superstep would.
/// It also counts the frames it sent by type, which tells whether the rank
/// had reached phase 2 (a ghost_sync frame) and how many votes it had cast.
/// With kill_at = UINT64_MAX it only counts.
class dying_backend final : public comm_backend {
 public:
  dying_backend(comm_backend& inner, std::uint64_t kill_at)
      : inner_(inner), kill_at_(kill_at) {}

  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }
  void send(int to, const frame& f) override {
    if (++sends_ == kill_at_) {
      inner_.close();
      throw wire_error("rank died");
    }
    ++sent_[static_cast<std::size_t>(f.type)];
    inner_.send(to, f);
  }
  bool recv(int& from, frame& out) override { return inner_.recv(from, out); }
  [[nodiscard]] net_stats stats() const noexcept override {
    return inner_.stats();
  }
  void close() override { inner_.close(); }

  [[nodiscard]] bool died() const noexcept { return sends_ >= kill_at_; }
  [[nodiscard]] std::uint64_t sent(frame_type type) const noexcept {
    return sent_[static_cast<std::size_t>(type)];
  }
  [[nodiscard]] bool left_voronoi() const noexcept {
    return sent(frame_type::ghost_sync) > 0;
  }
  [[nodiscard]] std::uint64_t votes() const noexcept {
    return sent(frame_type::vote);
  }

 private:
  comm_backend& inner_;
  std::uint64_t kill_at_;
  std::uint64_t sends_ = 0;
  std::array<std::uint64_t, 256> sent_{};  ///< indexed by frame_type
};

TEST(NetDistSolve, OneVotePerSuperstepAndMarkersOnlyInOneShotExchanges) {
  const graph::csr_graph g = make_connected_graph(300, 25, 15);
  const auto seeds = pick_seeds(g, 6, 2);
  constexpr int k_world = 3;
  loopback_mesh mesh(k_world);
  std::vector<std::unique_ptr<dying_backend>> counted;
  std::vector<net_solve_report> reports(k_world);
  std::vector<std::future<void>> ranks;
  for (int r = 0; r < k_world; ++r) {
    counted.push_back(
        std::make_unique<dying_backend>(mesh.endpoint(r), UINT64_MAX));
  }
  for (int r = 0; r < k_world; ++r) {
    ranks.push_back(std::async(std::launch::async, [&, r] {
      try {
        (void)solve_rank(g, seeds, core::solver_config{},
                         *counted[static_cast<std::size_t>(r)],
                         &reports[static_cast<std::size_t>(r)]);
      } catch (...) {
        mesh.close_all();
        throw;
      }
    }));
  }
  for (auto& rank : ranks) rank.get();

  for (int r = 0; r < k_world; ++r) {
    const dying_backend& net = *counted[static_cast<std::size_t>(r)];
    const net_solve_report& report = reports[static_cast<std::size_t>(r)];
    // Phases 1 and 6 vote at least once each.
    EXPECT_GE(report.supersteps, 2u);
    EXPECT_EQ(report.vote_rounds, report.supersteps);
    EXPECT_EQ(net.votes(), report.supersteps * (k_world - 1)) << r;
    // Ghost sync, EN reduce and gather: one marker to each peer apiece.
    EXPECT_EQ(net.sent(frame_type::superstep_marker), 3u * (k_world - 1))
        << r;
  }
}

TEST(NetDistSolve, DeadPeerInWindowedVoronoiUnwindsEveryRank) {
  const graph::csr_graph g = make_connected_graph(400, 30, 77);
  const auto seeds = pick_seeds(g, 8, 5);
  constexpr int k_world = 3;
  loopback_mesh mesh(k_world);
  dying_backend dying(mesh.endpoint(1), 40);
  std::vector<std::future<void>> ranks;
  for (int r = 0; r < k_world; ++r) {
    comm_backend& net = r == 1 ? dying : mesh.endpoint(r);
    ranks.push_back(std::async(std::launch::async, [&g, &seeds, &net] {
      (void)solve_rank(g, seeds, core::solver_config{}, net);
    }));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int r = 0; r < k_world; ++r) {
    auto& rank = ranks[static_cast<std::size_t>(r)];
    if (rank.wait_until(deadline) != std::future_status::ready) {
      ADD_FAILURE() << "rank " << r << " still running at the deadline";
      mesh.close_all();
    }
    EXPECT_THROW(rank.get(), wire_error) << "rank " << r;
  }
  // The rank died inside phase 1, after several windowed supersteps.
  EXPECT_TRUE(dying.died());
  EXPECT_FALSE(dying.left_voronoi());
  EXPECT_GE(dying.votes(), 4u * (k_world - 1));
}

TEST(NetDistSolve, ReportsModelledAndMeasuredTraffic) {
  const graph::csr_graph g = make_connected_graph(300, 25, 15);
  const auto seeds = pick_seeds(g, 6, 2);
  std::vector<net_solve_report> reports;
  (void)solve_loopback(g, seeds, {}, 4, &reports);
  for (const auto& r : reports) {
    EXPECT_GT(r.stats.bytes_sent, 0u);
    EXPECT_GT(r.bytes_modelled, 0u);
    // Measured wire bytes include headers/markers/votes, so they dominate
    // the payload-only model.
    EXPECT_GE(r.stats.bytes_sent, r.bytes_modelled);
    EXPECT_FALSE(r.samples.empty());
    std::uint64_t modelled = 0;
    for (const auto& s : r.samples) modelled += s.bytes_modelled;
    EXPECT_EQ(modelled, r.bytes_modelled);
    EXPECT_GT(r.vote_rounds, 0u);
  }
}

// ---- cluster telemetry plane ------------------------------------------------

using sample_key = std::tuple<std::uint8_t, std::uint32_t, std::int32_t,
                              std::uint64_t>;

std::vector<sample_key> cluster_keys(const cluster_trace& trace) {
  std::vector<sample_key> keys;
  keys.reserve(trace.samples.size());
  for (const rank_telemetry& s : trace.samples) {
    keys.emplace_back(s.phase, s.superstep, s.rank, s.visitors);
  }
  return keys;
}

TEST(NetClusterTelemetry, MergeIsDeterministicAcrossRunsAndCoversAllRanks) {
  const graph::csr_graph g = make_connected_graph(300, 35, 19);
  const auto seeds = pick_seeds(g, 6, 0xBEEF);
  core::solver_config config;  // net_telemetry defaults on

  for (const int world : {2, 3}) {
    std::vector<std::vector<sample_key>> runs;
    for (int run = 0; run < 2; ++run) {
      std::vector<net_solve_report> reports;
      (void)solve_loopback(g, seeds, config, world, &reports);
      ASSERT_EQ(reports.size(), static_cast<std::size_t>(world));

      const cluster_trace& cluster = reports[0].cluster;
      EXPECT_EQ(cluster.world, world);
      // Rank 0 absorbed exactly what every rank emitted, no frame lost to
      // the data-plane interleaving.
      std::size_t emitted = 0;
      for (const net_solve_report& r : reports) {
        emitted += r.telemetry.size();
        EXPECT_TRUE(r.rank == 0 || r.cluster.samples.empty())
            << "cluster merge leaked off rank 0";
      }
      EXPECT_EQ(cluster.samples.size(), emitted);

      // Canonical (phase, superstep, rank) order, every rank present.
      std::vector<bool> seen(static_cast<std::size_t>(world), false);
      for (std::size_t i = 0; i < cluster.samples.size(); ++i) {
        const rank_telemetry& s = cluster.samples[i];
        ASSERT_GE(s.rank, 0);
        ASSERT_LT(s.rank, world);
        seen[static_cast<std::size_t>(s.rank)] = true;
        if (i > 0) {
          const rank_telemetry& p = cluster.samples[i - 1];
          EXPECT_LE(std::make_tuple(p.phase, p.superstep, p.rank),
                    std::make_tuple(s.phase, s.superstep, s.rank));
        }
      }
      for (const bool rank_seen : seen) EXPECT_TRUE(rank_seen);
      runs.push_back(cluster_keys(cluster));
    }
    // Same graph/seeds/world => identical merged sample keys run over run
    // (timings move, the schedule does not).
    EXPECT_EQ(runs[0], runs[1]) << "world " << world;
  }

  // world 1: the plane degenerates to rank 0 observing itself.
  std::vector<net_solve_report> solo;
  (void)solve_loopback(g, seeds, config, 1, &solo);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo[0].cluster.samples.size(), solo[0].telemetry.size());
  EXPECT_FALSE(solo[0].cluster.samples.empty());
}

TEST(NetClusterTelemetry, StragglerReportAttributesEverySuperstepGroup) {
  const graph::csr_graph g = make_connected_graph(250, 30, 31);
  const auto seeds = pick_seeds(g, 5, 0xCAFE);
  std::vector<net_solve_report> reports;
  (void)solve_loopback(g, seeds, {}, 3, &reports);
  const cluster_trace& cluster = reports[0].cluster;
  ASSERT_FALSE(cluster.samples.empty());

  const auto rows = straggler_rows(cluster);
  std::size_t grouped = 0;
  for (const straggler_row& row : rows) {
    EXPECT_GE(row.critical_rank, 0);
    EXPECT_LT(row.critical_rank, 3);
    EXPECT_GE(row.compute_skew, 1.0);
    EXPECT_GE(row.comm_wait_fraction, 0.0);
    EXPECT_LE(row.comm_wait_fraction, 1.0);
    for (const rank_telemetry& s : cluster.samples) {
      if (s.phase == row.phase && s.superstep == row.superstep) ++grouped;
    }
  }
  EXPECT_EQ(grouped, cluster.samples.size());  // every sample attributed

  const cluster_summary summary = summarize_cluster(cluster);
  EXPECT_EQ(summary.world, 3);
  EXPECT_EQ(summary.supersteps, rows.size());
  EXPECT_GE(summary.critical_rank, 0);
  EXPECT_GE(summary.max_compute_skew, 1.0);
  EXPECT_LE(summary.critical_supersteps, summary.supersteps);

  const std::string json = render_cluster_json(cluster);
  EXPECT_NE(json.find("\"straggler_report\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_rank\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(NetClusterTelemetry, EveryWindowConservesDataTraffic) {
  const graph::csr_graph g = make_connected_graph(300, 35, 19);
  const auto seeds = pick_seeds(g, 6, 0xBEEF);
  constexpr int k_world = 3;
  std::vector<net_solve_report> reports;
  (void)solve_loopback(g, seeds, core::solver_config{}, k_world, &reports);

  // Each window, (phase, superstep), holds one sample per rank.
  std::map<std::pair<std::uint8_t, std::uint32_t>,
           std::array<const rank_telemetry*, k_world>>
      windows;
  for (const rank_telemetry& s : reports[0].cluster.samples) {
    ASSERT_GE(s.rank, 0);
    ASSERT_LT(s.rank, k_world);
    windows[{s.phase, s.superstep}][static_cast<std::size_t>(s.rank)] = &s;
  }
  constexpr auto gather = static_cast<std::uint8_t>(telemetry_phase::gather);
  std::uint64_t voting_batches = 0;
  for (const auto& [window, samples] : windows) {
    const auto [phase, superstep] = window;
    for (std::size_t p = 0; p < k_world; ++p) {
      ASSERT_NE(samples[p], nullptr) << "phase " << int{phase} << " superstep "
                                     << superstep << " rank " << p;
    }
    for (std::size_t p = 0; p < k_world; ++p) {
      for (std::size_t r = 0; r < k_world; ++r) {
        if (p == r) continue;
        const telemetry_peer_traffic& out = samples[p]->peers[r];
        const telemetry_peer_traffic& in = samples[r]->peers[p];
        const std::string where = "phase " + std::to_string(phase) +
                                  " superstep " + std::to_string(superstep) +
                                  " " + std::to_string(p) + " -> " +
                                  std::to_string(r);
        if (phase == gather) {
          // The solve's last exchange emits its samples before the drain
          // (see collect_tree_edges), so they tally nothing received.
          EXPECT_EQ(in.batches_received, 0u) << where;
          continue;
        }
        EXPECT_EQ(out.batches_sent, in.batches_received) << where;
        EXPECT_EQ(out.bytes_sent, in.bytes_received) << where;
        if (phase == static_cast<std::uint8_t>(telemetry_phase::voronoi) ||
            phase == static_cast<std::uint8_t>(telemetry_phase::tree_walk)) {
          voting_batches += out.batches_sent;
        }
      }
    }
  }
  // The voting supersteps carried data, so their tallies were checked.
  EXPECT_GT(voting_batches, 0u);
}

TEST(NetClusterTelemetry, TracedAndUntracedSolvesBitIdentical) {
  const graph::csr_graph g = make_connected_graph(300, 25, 47);
  const auto seeds = pick_seeds(g, 6, 0x7777);

  core::solver_config off;
  off.net_telemetry = false;
  std::vector<net_solve_report> off_reports;
  const auto baseline = solve_loopback(g, seeds, off, 3, &off_reports);
  EXPECT_TRUE(off_reports[0].cluster.samples.empty());
  EXPECT_TRUE(off_reports[0].telemetry.empty());

  obs::query_trace trace(obs::trace_config{}, 1);
  core::solver_config on;
  on.net_telemetry = true;
  on.trace = &trace;
  std::vector<net_solve_report> on_reports;
  const auto traced = solve_loopback(g, seeds, on, 3, &on_reports);

  // The whole observability plane is pure observation.
  expect_identical(traced, baseline);
  EXPECT_FALSE(on_reports[0].cluster.samples.empty());
  EXPECT_FALSE(trace.spans().empty());          // phase spans from solve_rank
  EXPECT_GT(trace.probe().total_samples(), 0u); // per-superstep engine rows
}

// ---- TCP backend ------------------------------------------------------------

std::uint16_t test_base_port() {
  // Derived from the pid so parallel ctest shards don't collide.
  return static_cast<std::uint16_t>(20000 + (::getpid() % 20000));
}

TEST(NetTcp, MeshExchangesFramesBothWays) {
  const std::uint16_t port = test_base_port();
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Rank 1 process: echo rank 0's marker value back, doubled.
    int status = 1;
    try {
      tcp_backend net({1, 2, port, 15000});
      int from = -1;
      frame f;
      if (net.recv(from, f) && from == 0) {
        net.send(0, make_marker(decode_marker(f) * 2));
        status = 0;
      }
    } catch (...) {
    }
    ::_exit(status);
  }
  tcp_backend net({0, 2, port, 15000});
  net.send(1, make_marker(21));
  int from = -1;
  frame f;
  ASSERT_TRUE(net.recv(from, f));
  EXPECT_EQ(from, 1);
  EXPECT_EQ(decode_marker(f), 42u);
  EXPECT_GT(net.stats().bytes_sent, 0u);
  EXPECT_GT(net.stats().bytes_received, 0u);
  int wstatus = -1;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
}

/// waitpid() that gives up at `deadline`: the child is then killed and the
/// test fails. Returns the wait status.
int wait_or_kill(pid_t child, std::chrono::steady_clock::time_point deadline) {
  int wstatus = -1;
  while (::waitpid(child, &wstatus, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "child " << child << " still running at the deadline";
      ::kill(child, SIGKILL);
      ::waitpid(child, &wstatus, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return wstatus;
}

TEST(NetTcp, WaitingOnAPeerThatLeftRaisesWireError) {
  // Rank 1 leaves right after the mesh is up; rank 2 stays and sends
  // nothing. Rank 0 waiting on rank 1 must fail, not poll rank 2 for ever.
  const std::uint16_t port =
      static_cast<std::uint16_t>(test_base_port() + 300);
  constexpr int k_world = 3;
  std::vector<pid_t> children;
  for (int rank = 1; rank < k_world; ++rank) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      int status = 1;
      try {
        tcp_backend net({rank, k_world, port, 15000});
        int from = -1;
        frame f;
        if (rank == 2) {
          while (net.recv(from, f)) {
          }
        }
        status = 0;
      } catch (...) {
      }
      ::_exit(status);
    }
    children.push_back(child);
  }

  {
    tcp_backend net({0, k_world, port, 15000});
    peer_channels chans(net);
    auto wait = std::async(std::launch::async, [&] { (void)chans.next(1); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    if (wait.wait_until(deadline) != std::future_status::ready) {
      ADD_FAILURE() << "rank 0 still waiting on rank 1 at the deadline";
      ::kill(children[1], SIGKILL);  // rank 2's closed sockets unblock it
    }
    EXPECT_THROW(wait.get(), wire_error);
  }  // rank 0's sockets close here, which ends rank 2's loop

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (const pid_t child : children) {
    const int wstatus = wait_or_kill(child, deadline);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  }
}

TEST(NetTcp, DeadChildRankFailsTheSolveOnEveryRank) {
  const std::uint16_t port =
      static_cast<std::uint16_t>(test_base_port() + 200);
  const graph::csr_graph g = make_connected_graph(400, 30, 77);
  const auto seeds = pick_seeds(g, 8, 5);
  constexpr int k_world = 3;
  constexpr int k_dying = 1;
  constexpr int k_died_in_phase_1 = 3;  // the dying rank's exit status

  std::vector<pid_t> children;
  for (int rank = 1; rank < k_world; ++rank) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Rank 1 dies at its 40th send, inside phase 1, and exits at once.
      // Rank 2 exits 0 only if its solve returns.
      int status = 1;
      try {
        tcp_backend net({rank, k_world, port, 15000});
        if (rank == k_dying) {
          dying_backend dying(net, 40);
          try {
            (void)solve_rank(g, seeds, core::solver_config{}, dying);
          } catch (const wire_error&) {
          }
          if (dying.died() && !dying.left_voronoi()) {
            status = k_died_in_phase_1;
          }
        } else {
          (void)solve_rank(g, seeds, core::solver_config{}, net);
          status = 0;
        }
      } catch (...) {
      }
      ::_exit(status);
    }
    children.push_back(child);
  }

  {
    tcp_backend net({0, k_world, port, 15000});
    auto solve = std::async(std::launch::async, [&] {
      (void)solve_rank(g, seeds, core::solver_config{}, net);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    if (solve.wait_until(deadline) != std::future_status::ready) {
      ADD_FAILURE() << "rank 0 still running at the deadline";
      // Their closed sockets unblock rank 0.
      for (const pid_t child : children) ::kill(child, SIGKILL);
    }
    EXPECT_THROW(solve.get(), wire_error);
  }  // rank 0's sockets close here

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int rank = 1; rank < k_world; ++rank) {
    const int wstatus =
        wait_or_kill(children[static_cast<std::size_t>(rank - 1)], deadline);
    const int exit_status = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    if (rank == k_dying) {
      EXPECT_EQ(exit_status, k_died_in_phase_1);
    } else {
      EXPECT_NE(exit_status, 0) << "the surviving rank reported success";
    }
  }
}

TEST(NetTcp, DistributedSolveBitIdenticalToSingleProcess) {
  const std::uint16_t port =
      static_cast<std::uint16_t>(test_base_port() + 100);
  const graph::csr_graph g = make_connected_graph(250, 30, 51);
  const auto seeds = pick_seeds(g, 6, 7);
  core::solver_config config;
  const auto reference = core::solve_steiner_tree(g, seeds, config);

  constexpr int k_world = 3;
  std::vector<pid_t> children;
  for (int rank = 1; rank < k_world; ++rank) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Child process: rank `rank` of the TCP mesh. Exit 0 iff its copy of
      // the result matches the single-process reference bit for bit.
      int status = 1;
      try {
        tcp_backend net({rank, k_world, port, 15000});
        const auto mine = solve_rank(g, seeds, config, net);
        if (mine.tree_edges == reference.tree_edges &&
            mine.total_distance == reference.total_distance) {
          status = 0;
        }
      } catch (...) {
      }
      ::_exit(status);
    }
    children.push_back(child);
  }

  // Rank 0 (this process) additionally carries a query trace; the children
  // run untraced. Mixing is safe — tracing and telemetry are pure
  // observation, which the bit-identity expectations below re-prove over a
  // real kernel socket mesh.
  obs::query_trace trace(obs::trace_config{}, 1);
  core::solver_config traced_config = config;
  traced_config.trace = &trace;

  tcp_backend net({0, k_world, port, 15000});
  net_solve_report report;
  const auto distributed = solve_rank(g, seeds, traced_config, net, &report);
  expect_identical(distributed, reference);
  EXPECT_GT(report.stats.bytes_sent, 0u);
  EXPECT_GT(report.ghost_labels_sent, 0u);

  // The telemetry plane crossed the TCP mesh: rank 0's merged cluster trace
  // covers every forked rank, and the trace recorded the distributed phases.
  ASSERT_FALSE(report.cluster.samples.empty());
  EXPECT_EQ(report.cluster.world, k_world);
  std::vector<bool> covered(k_world, false);
  for (const rank_telemetry& s : report.cluster.samples) {
    ASSERT_GE(s.rank, 0);
    ASSERT_LT(s.rank, k_world);
    covered[static_cast<std::size_t>(s.rank)] = true;
  }
  for (const bool rank_covered : covered) EXPECT_TRUE(rank_covered);
  EXPECT_FALSE(trace.spans().empty());
  EXPECT_GT(trace.probe().total_samples(), 0u);

  for (const pid_t child : children) {
    int wstatus = -1;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
        << "child rank failed or mismatched";
  }
}

}  // namespace
