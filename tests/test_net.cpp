// The distributed transport subsystem (src/runtime/net/): wire-format
// round-trips and strict rejection, loopback mesh semantics, the termination
// vote, and the headline guarantee — a distributed solve over any world size
// and either backend is bit-identical to the single-process solver.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <tuple>
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
  const frame propose = encode_vote(vote, false);
  EXPECT_EQ(propose.payload.size(), 29u);
  EXPECT_EQ(decode_vote(propose), vote);
  const frame confirm = encode_vote(vote, true);
  EXPECT_EQ(confirm.type, frame_type::vote_confirm);
  EXPECT_EQ(decode_vote(confirm), vote);

  // A vote in the format before min_priority (21 bytes) is not a vote.
  for (frame old : {propose, confirm}) {
    old.payload.resize(21);
    EXPECT_THROW((void)decode_vote(old), wire_error);
  }
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
  in.vote_nanos = 44;
  in.peers = {{3, 480, 2, 320}, {0, 0, 0, 0}, {7, 9000, 1, 64}};

  const frame f = encode_telemetry(in);
  EXPECT_EQ(f.type, frame_type::telemetry);
  EXPECT_EQ(f.payload.size(), 61u + in.peers.size() * 24);
  EXPECT_EQ(decode_telemetry(f), in);
  // Whole-frame trip (what actually crosses the wire to rank 0).
  EXPECT_EQ(decode_telemetry(decode_frame(encode_frame(f))), in);

  EXPECT_EQ(in.total_nanos(), 1111u + 222u + 3333u + 44u);
  EXPECT_EQ(in.comm_nanos(), 222u + 3333u + 44u);
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
  bytes[2] = 200;
  EXPECT_THROW((void)decode_header(bytes), wire_error);
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
      {"vote", encode_vote(vote, true),
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

TEST(NetTermination, TwoPhaseVoteStopsOnlyWhenAllIdle) {
  loopback_mesh mesh(2);
  vote_decision d0;
  vote_decision d1;
  std::thread peer([&] {
    peer_channels chans(mesh.endpoint(1));
    termination_vote vote(chans);
    d1 = vote.round(5, false, 0, 0.0, 40);  // this rank still has work
  });
  peer_channels chans(mesh.endpoint(0));
  termination_vote vote(chans);
  d0 = vote.round(0, false, 0);
  peer.join();
  EXPECT_FALSE(d0.stop);
  EXPECT_FALSE(d1.stop);
  // Both ranks leave with the least pending priority of either.
  EXPECT_EQ(d0.min_priority, 40u);
  EXPECT_EQ(d1.min_priority, 40u);

  std::thread peer2([&] {
    peer_channels c(mesh.endpoint(1));
    termination_vote v(c);
    d1 = v.round(0, false, 1);
  });
  peer_channels c0(mesh.endpoint(0));
  termination_vote v0(c0);
  d0 = v0.round(0, false, 1);
  peer2.join();
  EXPECT_TRUE(d0.stop);   // proposed idle + confirmed idle
  EXPECT_TRUE(d1.stop);
  EXPECT_EQ(v0.rounds(), 2u);  // propose + confirm
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
/// the mesh and throws, as a rank process exiting mid-superstep would. It
/// also notes whether the rank had reached phase 2 (a ghost_sync frame) and
/// how many votes it had cast.
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
    if (f.type == frame_type::ghost_sync) left_voronoi_ = true;
    if (f.type == frame_type::vote) ++votes_;
    inner_.send(to, f);
  }
  bool recv(int& from, frame& out) override { return inner_.recv(from, out); }
  [[nodiscard]] net_stats stats() const noexcept override {
    return inner_.stats();
  }
  void close() override { inner_.close(); }

  [[nodiscard]] bool died() const noexcept { return sends_ >= kill_at_; }
  [[nodiscard]] bool left_voronoi() const noexcept { return left_voronoi_; }
  [[nodiscard]] std::uint64_t votes() const noexcept { return votes_; }

 private:
  comm_backend& inner_;
  std::uint64_t kill_at_;
  std::uint64_t sends_ = 0;
  std::uint64_t votes_ = 0;
  bool left_voronoi_ = false;
};

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
