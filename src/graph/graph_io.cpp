#include "graph/graph_io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "graph/edge_list.hpp"

namespace dsteiner::graph {

namespace {

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void write_vector(std::ostream& out, const std::vector<T>& values) {
  write_pod(out, static_cast<std::uint64_t>(values.size()));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("binary graph: truncated stream");
  return value;
}

/// Reads a count-prefixed array. The count comes from the file, so memory
/// grows one bounded chunk at a time as the stream actually supplies data:
/// a corrupt count ends in "truncated stream", not a huge allocation.
template <typename T>
std::vector<T> read_vector(std::istream& in) {
  constexpr std::uint64_t k_chunk = 1 << 16;
  const auto count = read_pod<std::uint64_t>(in);
  std::vector<T> values;
  while (values.size() < count) {
    const std::size_t done = values.size();
    const auto n = static_cast<std::size_t>(std::min(k_chunk, count - done));
    values.resize(done + n);
    in.read(reinterpret_cast<char*>(values.data() + done),
            static_cast<std::streamsize>(n * sizeof(T)));
    if (!in) throw std::runtime_error("binary graph: truncated stream");
  }
  return values;
}

}  // namespace

void save_binary_graph(std::ostream& out, const csr_graph& graph) {
  write_pod(out, k_binary_graph_magic);
  write_pod(out, std::uint64_t{1});  // version
  write_vector(out, graph.offsets());
  write_vector(out, graph.targets());
  write_vector(out, graph.arc_weights());
  if (!out) throw std::runtime_error("binary graph: write failure");
}

csr_graph load_binary_graph(std::istream& in) {
  if (read_pod<std::uint64_t>(in) != k_binary_graph_magic) {
    throw std::runtime_error("binary graph: bad magic");
  }
  if (read_pod<std::uint64_t>(in) != 1) {
    throw std::runtime_error("binary graph: unsupported version");
  }
  const auto offsets = read_vector<std::uint64_t>(in);
  const auto targets = read_vector<vertex_id>(in);
  const auto weights = read_vector<weight_t>(in);
  if (offsets.empty() || offsets.front() != 0 ||
      !std::is_sorted(offsets.begin(), offsets.end()) ||
      targets.size() != weights.size() || offsets.back() != targets.size()) {
    throw std::runtime_error("binary graph: inconsistent arrays");
  }
  const vertex_id n = offsets.size() - 1;
  if (std::any_of(targets.begin(), targets.end(),
                  [n](vertex_id t) { return t >= n; })) {
    throw std::runtime_error("binary graph: arc target out of range");
  }
  // Rebuild through the edge list so the class invariants (sorted rows) are
  // re-established by construction rather than trusted from the file.
  edge_list list(n);
  list.edges().reserve(targets.size());
  for (vertex_id v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      list.edges().push_back({v, targets[i], weights[i]});
    }
  }
  return csr_graph(list);
}

void save_binary_graph_file(const std::string& path, const csr_graph& graph) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("binary graph: cannot write " + path);
  save_binary_graph(out, graph);
}

csr_graph load_binary_graph_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("binary graph: cannot open " + path);
  return load_binary_graph(in);
}

}  // namespace dsteiner::graph
