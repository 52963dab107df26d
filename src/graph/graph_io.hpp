// Binary graph serialization — the analogue of the "HavoqGT binary graph
// format" whose storage sizes Table III reports. The CSR arrays are written
// verbatim with a small header, so loading is a read into three vectors
// (no rebuild), mirroring how the paper's pipeline separates one-time
// ingestion from query-time loading.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr_graph.hpp"

namespace dsteiner::graph {

/// Magic + version guarding the layout.
inline constexpr std::uint64_t k_binary_graph_magic = 0x445354454e455231ULL;

void save_binary_graph(std::ostream& out, const csr_graph& graph);
void save_binary_graph_file(const std::string& path, const csr_graph& graph);

/// Throws std::runtime_error on bad magic/version/truncation and on arrays
/// that do not form a CSR graph (offsets not starting at 0, decreasing, or
/// not ending at the arc count; a target outside the vertex range).
[[nodiscard]] csr_graph load_binary_graph(std::istream& in);
[[nodiscard]] csr_graph load_binary_graph_file(const std::string& path);

}  // namespace dsteiner::graph
