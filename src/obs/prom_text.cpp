#include "obs/prom_text.hpp"

#include <charconv>
#include <cstdio>

namespace dsteiner::obs {

namespace {

[[nodiscard]] std::string_view type_name(prom_type type) noexcept {
  switch (type) {
    case prom_type::counter: return "counter";
    case prom_type::gauge: return "gauge";
    case prom_type::histogram: return "histogram";
  }
  return "untyped";
}

void append_value(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  out.append(buffer, end);
}

/// `%.9g` into `buffer` (at least 32 bytes); returns the formatted text.
std::string_view format_double(char* buffer, double value) {
  const int n = std::snprintf(buffer, 32, "%.9g", value);
  return {buffer, static_cast<std::size_t>(n)};
}

void append_value(std::string& out, double value) {
  char buffer[32];
  out.append(format_double(buffer, value));
}

}  // namespace

prom_writer& prom_writer::family(std::string_view name, prom_type type,
                                 std::string_view help) {
  name_.assign(name);
  out_.append("# HELP ").append(prefix_).append(1, '_').append(name_);
  out_.append(1, ' ').append(help).append(1, '\n');
  out_.append("# TYPE ").append(prefix_).append(1, '_').append(name_);
  out_.append(1, ' ').append(type_name(type)).append(1, '\n');
  return *this;
}

template <typename T>
void prom_writer::write_sample(std::string_view suffix, prom_labels labels,
                               T value) {
  out_.append(prefix_).append(1, '_').append(name_).append(suffix);
  char sep = '{';
  for (const prom_label& label : labels) {
    out_.append(1, sep).append(label.name).append("=\"");
    out_.append(label.value).append(1, '"');
    sep = ',';
  }
  if (labels.size() != 0) out_.append(1, '}');
  out_.append(1, ' ');
  append_value(out_, value);
  out_.append(1, '\n');
}

prom_writer& prom_writer::sample(std::uint64_t value, prom_labels labels) {
  write_sample({}, labels, value);
  return *this;
}

prom_writer& prom_writer::sample(double value, prom_labels labels) {
  write_sample({}, labels, value);
  return *this;
}

prom_writer& prom_writer::histogram(
    std::string_view name, std::string_view help,
    const service::latency_histogram::snapshot_data& hist, double scale) {
  using service::latency_histogram;
  family(name, prom_type::histogram, help);
  std::uint64_t cumulative = 0;
  char bound[32];
  for (std::size_t i = 0; i < latency_histogram::k_buckets; ++i) {
    cumulative += hist.buckets[i];
    const std::string_view le = format_double(
        bound, latency_histogram::bucket_upper_seconds(i) * scale);
    write_sample("_bucket", {{"le", le}}, cumulative);
  }
  write_sample("_bucket", {{"le", "+Inf"}}, cumulative);
  write_sample("_sum", {}, hist.total_seconds * scale);
  write_sample("_count", {}, cumulative);
  return *this;
}

}  // namespace dsteiner::obs
