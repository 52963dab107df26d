// Wire format of the real multi-process transport (src/runtime/net/).
//
// Every message between ranks is one length-prefixed *frame*:
//
//   magic u16 | type u8 | flags u8 | payload_len u32 | payload bytes
//
// All integers are little-endian fixed-width, so a frame encoded by any rank
// decodes identically on any peer regardless of host padding or ABI — the
// same property MPI datatypes buy the paper's implementation. Decoding is
// strict: a bad magic, an oversized length, a truncated payload or trailing
// garbage all raise `wire_error` instead of yielding a partial message, so a
// desynchronised stream fails loudly at the first frame boundary.
//
// The typed payload codecs below carry exactly the state the engines already
// exchange in-process: core's Voronoi visitors (Alg. 4 relaxations and
// delegate relays crossing partitions), tree-edge walk batches
// (Alg. 6), ghost boundary labels, cross-cell EN entries (Alg. 5), result
// tree edges, and the termination vote folding the superstep barrier's
// aggregate payload. A rank sends its vote after its last data frame of the
// superstep, so the vote also closes that rank's data stream to each peer;
// only the one-shot exchanges (ghost sync, EN reduce, gather) end with a
// superstep_marker.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/voronoi.hpp"
#include "graph/types.hpp"

namespace dsteiner::runtime::net {

/// Malformed wire data: bad magic, truncated/oversized frame, payload whose
/// length is not a whole number of records, or an unexpected frame type.
class wire_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class frame_type : std::uint8_t {
  hello = 1,            ///< mesh handshake: {rank, world}
  visitor_batch = 2,    ///< Voronoi visitors routed to their target's owner
  walk_batch = 3,       ///< tree-edge pred walk-backs (vertex ids)
  ghost_sync = 4,       ///< boundary labels {v, src, dist} pushed to neighbours
  en_entries = 5,       ///< cross-cell EN entries for the global reduction
  tree_edges = 6,       ///< per-rank result edges for the final allgather
  superstep_marker = 7, ///< end of a one-shot exchange's data frames
  vote = 8,             ///< termination vote; closes the superstep's data
  // 9 is retired (the old confirm round's vote); decode_header rejects it.
  shutdown = 10,        ///< end of a peer's stream (tcp_backend: its EOF)
  telemetry = 11,       ///< per-rank superstep sample, pushed to rank 0
};

[[nodiscard]] const char* to_string(frame_type type) noexcept;

struct frame {
  frame_type type = frame_type::shutdown;
  std::vector<std::uint8_t> payload;
};

inline constexpr std::uint16_t k_frame_magic = 0xD57E;
inline constexpr std::size_t k_header_bytes = 8;
/// Upper bound a receiver enforces before allocating the payload buffer: a
/// corrupted length field cannot OOM the rank. Batches are chunked well below
/// this by the senders.
inline constexpr std::uint32_t k_max_payload_bytes = 64u << 20;

/// Bytes a frame occupies on the wire (what the traffic counters measure).
[[nodiscard]] inline std::uint64_t wire_bytes(const frame& f) noexcept {
  return k_header_bytes + f.payload.size();
}

struct frame_header {
  frame_type type = frame_type::shutdown;
  std::uint32_t payload_bytes = 0;
};

/// Serialises the 8-byte header for `f` into `out`.
void encode_header(const frame& f, std::uint8_t out[k_header_bytes]);

/// Parses and validates an 8-byte header (magic, known type, length bound).
[[nodiscard]] frame_header decode_header(
    std::span<const std::uint8_t> header_bytes);

/// Whole-buffer encode/decode, used by the loopback tests and anywhere a
/// frame travels through memory instead of a socket. decode_frame rejects
/// buffers with missing or trailing bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const frame& f);
[[nodiscard]] frame decode_frame(std::span<const std::uint8_t> bytes);

// ---- typed payloads ------------------------------------------------------

/// A boundary vertex's converged phase-1 label, pushed by its owner to every
/// rank owning one of its neighbours (the ghost/boundary sync).
struct ghost_label {
  graph::vertex_id v = 0;
  graph::vertex_id src = graph::k_no_vertex;
  graph::weight_t dist = graph::k_inf_distance;

  friend bool operator==(const ghost_label&, const ghost_label&) = default;
};

/// One rank's contribution to a termination round — the same payload the
/// threaded engine folds through parallel::superstep_barrier::aggregate:
/// outstanding work (summed: mailbox backlog plus visitors sent remotely this
/// superstep), cooperative-stop flag (OR-folded), simulated work since the
/// previous vote (max-folded: the critical path) and a lower bound on the
/// least pending priority (min-folded: the frontier window's m).
struct superstep_vote {
  std::uint64_t outstanding = 0;
  std::uint32_t superstep = 0;
  std::uint8_t cancel = 0;
  double max_work = 0.0;  ///< cost-model units; travels as its IEEE-754 bits
  std::uint64_t min_priority = UINT64_MAX;  ///< UINT64_MAX: nothing pending

  friend bool operator==(const superstep_vote&,
                         const superstep_vote&) = default;
};

/// One EN entry on the wire: canonical seed pair + its best bridge.
struct wire_en_entry {
  graph::vertex_id seed_a = 0;  ///< canonical: seed_a < seed_b
  graph::vertex_id seed_b = 0;
  graph::weight_t bridge_distance = graph::k_inf_distance;
  graph::vertex_id u = graph::k_no_vertex;  ///< bridge endpoints, u < v
  graph::vertex_id v = graph::k_no_vertex;
  graph::weight_t edge_weight = 0;

  friend bool operator==(const wire_en_entry&, const wire_en_entry&) = default;
};

[[nodiscard]] frame encode_hello(int rank, int world);
void decode_hello(const frame& f, int& rank, int& world);

/// core::voronoi_visitor records of 32 bytes: {vj, vp or tag, t, r}. Relay
/// visitors never read vp, so that word carries their tag instead: top bit
/// set, kind in bits 32-62, bits 0-31 zero. A normal visitor's vp is sent as
/// is; it must be below 2^63 or k_no_vertex. An unknown kind, or a relay tag
/// with a nonzero low word, is a wire_error.
[[nodiscard]] frame encode_visitor_batch(
    std::span<const core::voronoi_visitor> items);
/// One record of encode_visitor_batch, appended to a visitor_batch payload —
/// for senders that stream records into frames as they are produced.
void append_visitor(std::vector<std::uint8_t>& payload,
                    const core::voronoi_visitor& v);
[[nodiscard]] std::vector<core::voronoi_visitor> decode_visitor_batch(
    const frame& f);

[[nodiscard]] frame encode_walk_batch(std::span<const graph::vertex_id> items);
/// One record of encode_walk_batch, appended to a walk_batch payload.
void append_walk(std::vector<std::uint8_t>& payload, graph::vertex_id v);
[[nodiscard]] std::vector<graph::vertex_id> decode_walk_batch(const frame& f);

[[nodiscard]] frame encode_ghost_batch(std::span<const ghost_label> items);
[[nodiscard]] std::vector<ghost_label> decode_ghost_batch(const frame& f);

[[nodiscard]] frame encode_en_batch(std::span<const wire_en_entry> items);
[[nodiscard]] std::vector<wire_en_entry> decode_en_batch(const frame& f);

[[nodiscard]] frame encode_edge_batch(
    std::span<const graph::weighted_edge> items);
[[nodiscard]] std::vector<graph::weighted_edge> decode_edge_batch(
    const frame& f);

[[nodiscard]] frame encode_vote(const superstep_vote& vote);
[[nodiscard]] superstep_vote decode_vote(const frame& f);

[[nodiscard]] frame make_marker(std::uint32_t superstep);
[[nodiscard]] std::uint32_t decode_marker(const frame& f);

// ---- cluster telemetry ---------------------------------------------------

/// Which phase of the distributed pipeline a telemetry sample belongs to.
/// Ordered by pipeline position so sorting by (phase, superstep, rank) yields
/// the execution order of the whole solve.
enum class telemetry_phase : std::uint8_t {
  voronoi = 1,     ///< Voronoi growth supersteps (Alg. 4)
  ghost_sync = 2,  ///< boundary-label exchange (one-shot)
  en_reduce = 3,   ///< all-to-all EN reduction (one-shot, Alg. 5)
  tree_walk = 4,   ///< tree-edge walk-back supersteps (Alg. 6)
  gather = 5,      ///< result-edge allgather (one-shot)
};

[[nodiscard]] const char* to_string(telemetry_phase phase) noexcept;

/// Data-frame traffic one rank exchanged with one peer during one sample
/// window. Control frames (markers, votes, telemetry itself) are excluded:
/// the plane reports the application's communication, not its own.
struct telemetry_peer_traffic {
  std::uint32_t batches_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< wire bytes (header + payload)
  std::uint32_t batches_received = 0;
  std::uint64_t bytes_received = 0;

  friend bool operator==(const telemetry_peer_traffic&,
                         const telemetry_peer_traffic&) = default;
};

/// One rank's activity during one superstep (or one-shot exchange phase) —
/// the payload of a frame_type::telemetry frame. Every rank emits one per
/// superstep boundary; ranks != 0 push theirs to rank 0, which merges all of
/// them into a cluster_trace. Timings travel as integer nanoseconds so the
/// codec stays fixed-width like every other payload.
struct rank_telemetry {
  std::int32_t rank = 0;
  std::uint8_t phase = 0;  ///< a telemetry_phase value
  std::uint32_t superstep = 0;
  std::uint64_t visitors = 0;      ///< visitors/walks drained this window
  std::uint64_t ghost_labels = 0;  ///< boundary labels pushed (ghost phase)
  /// Local drain/relax work; includes streaming out frames that fill
  /// during the drain.
  std::uint64_t compute_nanos = 0;
  std::uint64_t send_flush_nanos = 0;  ///< encoding + sending the rest
  /// Waiting for and applying peers' frames up to their vote (or marker).
  std::uint64_t recv_wait_nanos = 0;
  std::vector<telemetry_peer_traffic> peers;  ///< indexed by peer rank

  [[nodiscard]] std::uint64_t total_nanos() const noexcept {
    return compute_nanos + send_flush_nanos + recv_wait_nanos;
  }
  [[nodiscard]] std::uint64_t comm_nanos() const noexcept {
    return send_flush_nanos + recv_wait_nanos;
  }

  friend bool operator==(const rank_telemetry&, const rank_telemetry&) = default;
};

[[nodiscard]] frame encode_telemetry(const rank_telemetry& sample);
[[nodiscard]] rank_telemetry decode_telemetry(const frame& f);

}  // namespace dsteiner::runtime::net
