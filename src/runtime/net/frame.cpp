#include "runtime/net/frame.hpp"

#include <bit>
#include <cstring>
#include <string>

namespace dsteiner::runtime::net {

namespace {

using visitor_kind = core::voronoi_visitor::kind_t;

/// Top bit of a visitor record's second word: set, the word is a relay tag
/// instead of a pred id (see encode_visitor_batch).
constexpr std::uint64_t k_kind_tag = 1ull << 63;

/// Little-endian store and load of an unsigned integer of any width.
template <typename T>
void put_le(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

template <typename T>
T get_le(const std::uint8_t* in) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | (static_cast<T>(in[i]) << (8 * i)));
  }
  return v;
}

/// Grows `payload` by `n` bytes and returns where they start.
std::uint8_t* grow(std::vector<std::uint8_t>& payload, std::size_t n) {
  payload.resize(payload.size() + n);
  return payload.data() + payload.size() - n;
}

/// Little-endian appender for payload construction.
class wire_writer {
 public:
  explicit wire_writer(std::size_t reserve_bytes = 0) {
    bytes_.reserve(reserve_bytes);
  }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) { put_le(grow(bytes_, 4), v); }
  void u64(std::uint64_t v) { put_le(grow(bytes_, 8), v); }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian cursor: every read past the end throws
/// wire_error — a truncated payload can never yield a partial record.
class wire_reader {
 public:
  explicit wire_reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = get_le<std::uint32_t>(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = get_le<std::uint64_t>(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

  void expect_done(const char* what) const {
    if (pos_ != bytes_.size()) {
      throw wire_error(std::string(what) + ": trailing payload bytes");
    }
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) throw wire_error("truncated payload");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Validates that a record-array payload holds a whole number of records and
/// returns the count. Rejects both truncation (partial trailing record) and
/// any length that is not an exact multiple.
std::size_t record_count(const frame& f, std::size_t record_bytes,
                         const char* what) {
  if (f.payload.size() % record_bytes != 0) {
    throw wire_error(std::string(what) + ": payload is not a whole number of " +
                     std::to_string(record_bytes) + "-byte records");
  }
  return f.payload.size() / record_bytes;
}

void check_type(const frame& f, frame_type want, const char* what) {
  if (f.type != want) {
    throw wire_error(std::string(what) + ": unexpected frame type " +
                     to_string(f.type));
  }
}

}  // namespace

const char* to_string(frame_type type) noexcept {
  switch (type) {
    case frame_type::hello: return "hello";
    case frame_type::visitor_batch: return "visitor_batch";
    case frame_type::walk_batch: return "walk_batch";
    case frame_type::ghost_sync: return "ghost_sync";
    case frame_type::en_entries: return "en_entries";
    case frame_type::tree_edges: return "tree_edges";
    case frame_type::superstep_marker: return "superstep_marker";
    case frame_type::vote: return "vote";
    case frame_type::shutdown: return "shutdown";
    case frame_type::telemetry: return "telemetry";
  }
  return "?";
}

const char* to_string(telemetry_phase phase) noexcept {
  switch (phase) {
    case telemetry_phase::voronoi: return "voronoi";
    case telemetry_phase::ghost_sync: return "ghost_sync";
    case telemetry_phase::en_reduce: return "en_reduce";
    case telemetry_phase::tree_walk: return "tree_walk";
    case telemetry_phase::gather: return "gather";
  }
  return "?";
}

void encode_header(const frame& f, std::uint8_t out[k_header_bytes]) {
  put_le(out, k_frame_magic);
  out[2] = static_cast<std::uint8_t>(f.type);
  out[3] = 0;  // flags, reserved
  put_le(out + 4, static_cast<std::uint32_t>(f.payload.size()));
}

frame_header decode_header(std::span<const std::uint8_t> header_bytes) {
  if (header_bytes.size() < k_header_bytes) {
    throw wire_error("truncated frame header");
  }
  if (get_le<std::uint16_t>(header_bytes.data()) != k_frame_magic) {
    throw wire_error("bad frame magic (stream desynchronised?)");
  }
  const std::uint8_t raw_type = header_bytes[2];
  if (raw_type < static_cast<std::uint8_t>(frame_type::hello) ||
      raw_type > static_cast<std::uint8_t>(frame_type::telemetry) ||
      raw_type == 9) {  // the retired confirm vote
    throw wire_error("unknown frame type " + std::to_string(raw_type));
  }
  const std::uint32_t len = get_le<std::uint32_t>(header_bytes.data() + 4);
  if (len > k_max_payload_bytes) {
    throw wire_error("oversized frame: " + std::to_string(len) + " bytes");
  }
  return frame_header{static_cast<frame_type>(raw_type), len};
}

std::vector<std::uint8_t> encode_frame(const frame& f) {
  if (f.payload.size() > k_max_payload_bytes) {
    throw wire_error("refusing to encode oversized frame");
  }
  std::vector<std::uint8_t> out(k_header_bytes + f.payload.size());
  encode_header(f, out.data());
  std::memcpy(out.data() + k_header_bytes, f.payload.data(), f.payload.size());
  return out;
}

frame decode_frame(std::span<const std::uint8_t> bytes) {
  const frame_header header = decode_header(bytes);
  if (bytes.size() != k_header_bytes + header.payload_bytes) {
    throw wire_error(bytes.size() < k_header_bytes + header.payload_bytes
                         ? "truncated frame payload"
                         : "trailing bytes after frame payload");
  }
  frame f;
  f.type = header.type;
  f.payload.assign(bytes.begin() + k_header_bytes, bytes.end());
  return f;
}

frame encode_hello(int rank, int world) {
  wire_writer w(8);
  w.u32(static_cast<std::uint32_t>(rank));
  w.u32(static_cast<std::uint32_t>(world));
  return frame{frame_type::hello, w.take()};
}

void decode_hello(const frame& f, int& rank, int& world) {
  check_type(f, frame_type::hello, "hello");
  wire_reader r(f.payload);
  rank = static_cast<int>(r.u32());
  world = static_cast<int>(r.u32());
  r.expect_done("hello");
  if (world <= 0 || rank < 0 || rank >= world) {
    throw wire_error("hello: rank/world out of range");
  }
}

void append_visitor(std::vector<std::uint8_t>& payload,
                    const core::voronoi_visitor& v) {
  std::uint64_t second = v.vp;
  if (v.kind != visitor_kind::normal) {
    second = k_kind_tag | (static_cast<std::uint64_t>(v.kind) << 32);
  } else if ((v.vp & k_kind_tag) != 0 && v.vp != graph::k_no_vertex) {
    throw wire_error("visitor_batch: pred id outside the wire range");
  }
  std::uint8_t* out = grow(payload, 32);
  put_le<std::uint64_t>(out, v.vj);
  put_le<std::uint64_t>(out + 8, second);
  put_le<std::uint64_t>(out + 16, v.t);
  put_le<std::uint64_t>(out + 24, v.r);
}

frame encode_visitor_batch(std::span<const core::voronoi_visitor> items) {
  frame f{frame_type::visitor_batch, {}};
  f.payload.reserve(items.size() * 32);
  for (const core::voronoi_visitor& v : items) append_visitor(f.payload, v);
  return f;
}

std::vector<core::voronoi_visitor> decode_visitor_batch(const frame& f) {
  check_type(f, frame_type::visitor_batch, "visitor_batch");
  const std::size_t n = record_count(f, 32, "visitor_batch");
  // record_count proved the payload holds exactly n records.
  std::vector<core::voronoi_visitor> out;
  out.reserve(n);
  for (const std::uint8_t* in = f.payload.data(); out.size() < n; in += 32) {
    core::voronoi_visitor& v = out.emplace_back();
    v.vj = get_le<std::uint64_t>(in);
    const std::uint64_t second = get_le<std::uint64_t>(in + 8);
    v.t = get_le<std::uint64_t>(in + 16);
    v.r = get_le<std::uint64_t>(in + 24);
    if ((second & k_kind_tag) == 0 || second == graph::k_no_vertex) {
      v.vp = second;
      continue;
    }
    const std::uint64_t kind = (second & ~k_kind_tag) >> 32;
    if (kind != static_cast<std::uint64_t>(visitor_kind::relay)) {
      throw wire_error("visitor_batch: unknown visitor kind " +
                       std::to_string(kind));
    }
    if (static_cast<std::uint32_t>(second) != 0) {
      throw wire_error("visitor_batch: relay tag with a nonzero low word");
    }
    v.kind = visitor_kind::relay;
  }
  return out;
}

void append_walk(std::vector<std::uint8_t>& payload, graph::vertex_id v) {
  put_le<std::uint64_t>(grow(payload, 8), v);
}

frame encode_walk_batch(std::span<const graph::vertex_id> items) {
  frame f{frame_type::walk_batch, {}};
  f.payload.reserve(items.size() * 8);
  for (const graph::vertex_id v : items) append_walk(f.payload, v);
  return f;
}

std::vector<graph::vertex_id> decode_walk_batch(const frame& f) {
  check_type(f, frame_type::walk_batch, "walk_batch");
  const std::size_t n = record_count(f, 8, "walk_batch");
  wire_reader r(f.payload);
  std::vector<graph::vertex_id> out(n);
  for (graph::vertex_id& v : out) v = r.u64();
  return out;
}

frame encode_ghost_batch(std::span<const ghost_label> items) {
  wire_writer w(items.size() * 24);
  for (const ghost_label& g : items) {
    w.u64(g.v);
    w.u64(g.src);
    w.u64(g.dist);
  }
  return frame{frame_type::ghost_sync, w.take()};
}

std::vector<ghost_label> decode_ghost_batch(const frame& f) {
  check_type(f, frame_type::ghost_sync, "ghost_sync");
  const std::size_t n = record_count(f, 24, "ghost_sync");
  wire_reader r(f.payload);
  std::vector<ghost_label> out(n);
  for (ghost_label& g : out) {
    g.v = r.u64();
    g.src = r.u64();
    g.dist = r.u64();
  }
  return out;
}

frame encode_en_batch(std::span<const wire_en_entry> items) {
  wire_writer w(items.size() * 48);
  for (const wire_en_entry& e : items) {
    w.u64(e.seed_a);
    w.u64(e.seed_b);
    w.u64(e.bridge_distance);
    w.u64(e.u);
    w.u64(e.v);
    w.u64(e.edge_weight);
  }
  return frame{frame_type::en_entries, w.take()};
}

std::vector<wire_en_entry> decode_en_batch(const frame& f) {
  check_type(f, frame_type::en_entries, "en_entries");
  const std::size_t n = record_count(f, 48, "en_entries");
  wire_reader r(f.payload);
  std::vector<wire_en_entry> out(n);
  for (wire_en_entry& e : out) {
    e.seed_a = r.u64();
    e.seed_b = r.u64();
    e.bridge_distance = r.u64();
    e.u = r.u64();
    e.v = r.u64();
    e.edge_weight = r.u64();
  }
  return out;
}

frame encode_edge_batch(std::span<const graph::weighted_edge> items) {
  wire_writer w(items.size() * 24);
  for (const graph::weighted_edge& e : items) {
    w.u64(e.source);
    w.u64(e.target);
    w.u64(e.weight);
  }
  return frame{frame_type::tree_edges, w.take()};
}

std::vector<graph::weighted_edge> decode_edge_batch(const frame& f) {
  check_type(f, frame_type::tree_edges, "tree_edges");
  const std::size_t n = record_count(f, 24, "tree_edges");
  wire_reader r(f.payload);
  std::vector<graph::weighted_edge> out(n);
  for (graph::weighted_edge& e : out) {
    e.source = r.u64();
    e.target = r.u64();
    e.weight = r.u64();
  }
  return out;
}

frame encode_vote(const superstep_vote& vote) {
  wire_writer w(29);
  w.u64(vote.outstanding);
  w.u32(vote.superstep);
  w.u8(vote.cancel);
  w.u64(std::bit_cast<std::uint64_t>(vote.max_work));
  w.u64(vote.min_priority);
  return frame{frame_type::vote, w.take()};
}

superstep_vote decode_vote(const frame& f) {
  check_type(f, frame_type::vote, "vote");
  wire_reader r(f.payload);
  superstep_vote v;
  v.outstanding = r.u64();
  v.superstep = r.u32();
  v.cancel = r.u8();
  v.max_work = std::bit_cast<double>(r.u64());
  v.min_priority = r.u64();
  r.expect_done("vote");
  return v;
}

frame make_marker(std::uint32_t superstep) {
  wire_writer w(4);
  w.u32(superstep);
  return frame{frame_type::superstep_marker, w.take()};
}

std::uint32_t decode_marker(const frame& f) {
  check_type(f, frame_type::superstep_marker, "superstep_marker");
  wire_reader r(f.payload);
  const std::uint32_t superstep = r.u32();
  r.expect_done("superstep_marker");
  return superstep;
}

frame encode_telemetry(const rank_telemetry& sample) {
  wire_writer w(53 + sample.peers.size() * 24);
  w.u32(static_cast<std::uint32_t>(sample.rank));
  w.u8(sample.phase);
  w.u32(sample.superstep);
  w.u64(sample.visitors);
  w.u64(sample.ghost_labels);
  w.u64(sample.compute_nanos);
  w.u64(sample.send_flush_nanos);
  w.u64(sample.recv_wait_nanos);
  w.u32(static_cast<std::uint32_t>(sample.peers.size()));
  for (const telemetry_peer_traffic& peer : sample.peers) {
    w.u32(peer.batches_sent);
    w.u64(peer.bytes_sent);
    w.u32(peer.batches_received);
    w.u64(peer.bytes_received);
  }
  return frame{frame_type::telemetry, w.take()};
}

rank_telemetry decode_telemetry(const frame& f) {
  check_type(f, frame_type::telemetry, "telemetry");
  wire_reader r(f.payload);
  rank_telemetry sample;
  sample.rank = static_cast<std::int32_t>(r.u32());
  sample.phase = r.u8();
  sample.superstep = r.u32();
  sample.visitors = r.u64();
  sample.ghost_labels = r.u64();
  sample.compute_nanos = r.u64();
  sample.send_flush_nanos = r.u64();
  sample.recv_wait_nanos = r.u64();
  if (sample.phase < static_cast<std::uint8_t>(telemetry_phase::voronoi) ||
      sample.phase > static_cast<std::uint8_t>(telemetry_phase::gather)) {
    throw wire_error("telemetry: unknown phase " +
                     std::to_string(sample.phase));
  }
  const std::uint32_t peer_count = r.u32();
  if (r.remaining() != static_cast<std::size_t>(peer_count) * 24) {
    throw wire_error("telemetry: peer array length mismatch");
  }
  sample.peers.resize(peer_count);
  for (telemetry_peer_traffic& peer : sample.peers) {
    peer.batches_sent = r.u32();
    peer.bytes_sent = r.u64();
    peer.batches_received = r.u32();
    peer.bytes_received = r.u64();
  }
  r.expect_done("telemetry");
  return sample;
}

}  // namespace dsteiner::runtime::net
