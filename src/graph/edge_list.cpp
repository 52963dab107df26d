#include "graph/edge_list.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace dsteiner::graph {

namespace {

/// Parses `token` as a whole unsigned decimal; false on a sign, any other
/// non-digit, or overflow.
bool parse_field(const std::string& token, std::uint64_t& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

void edge_list::add_edge(vertex_id u, vertex_id v, weight_t w) {
  edges_.push_back({u, v, w});
  num_vertices_ = std::max(num_vertices_, std::max(u, v) + 1);
}

void edge_list::add_undirected_edge(vertex_id u, vertex_id v, weight_t w) {
  add_edge(u, v, w);
  add_edge(v, u, w);
}

void edge_list::symmetrize() {
  const std::size_t original = edges_.size();
  edges_.reserve(original * 2);
  for (std::size_t i = 0; i < original; ++i) {
    const weighted_edge e = edges_[i];
    edges_.push_back({e.target, e.source, e.weight});
  }
  canonicalize();
}

void edge_list::canonicalize() {
  std::erase_if(edges_, [](const weighted_edge& e) { return e.source == e.target; });
  std::sort(edges_.begin(), edges_.end(),
            [](const weighted_edge& a, const weighted_edge& b) {
              if (a.source != b.source) return a.source < b.source;
              if (a.target != b.target) return a.target < b.target;
              return a.weight < b.weight;
            });
  // Parallel edges: the sort put the minimum weight first; unique keeps it.
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const weighted_edge& a, const weighted_edge& b) {
                             return a.source == b.source && a.target == b.target;
                           }),
               edges_.end());
}

edge_list edge_list::from_stream(std::istream& in) {
  edge_list result;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    const std::vector<std::string> token{
        std::istream_iterator<std::string>(fields), {}};
    vertex_id u = 0, v = 0;
    weight_t w = 1;  // the weight column is optional
    // Ids stop below k_no_vertex - 1 so the vertex count (max id + 1) and
    // the CSR offsets array (count + 1 entries) stay representable.
    if (token.size() < 2 || token.size() > 3 || !parse_field(token[0], u) ||
        !parse_field(token[1], v) ||
        (token.size() == 3 && !parse_field(token[2], w)) ||
        std::max(u, v) >= k_no_vertex - 1) {
      throw std::runtime_error("edge_list: malformed line: " + line);
    }
    result.add_edge(u, v, w);
  }
  return result;
}

void edge_list::to_stream(std::ostream& out) const {
  out << "# dsteiner edge list: source target weight\n";
  for (const auto& e : edges_) {
    out << e.source << ' ' << e.target << ' ' << e.weight << '\n';
  }
}

edge_list edge_list::load_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("edge_list: cannot open " + path);
  return from_stream(in);
}

void edge_list::save_text(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("edge_list: cannot write " + path);
  to_stream(out);
}

}  // namespace dsteiner::graph
