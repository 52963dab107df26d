// Prometheus text exposition (format 0.0.4) writer — the one place in the
// tree that writes `# HELP`/`# TYPE` headers and sample lines.
//
// family() writes a metric family's header once; every following sample()
// or histogram series belongs to that family until the next family() call.
// The rules validate_prometheus() (prom_validate.hpp) checks therefore hold
// by construction: one HELP/TYPE pair per family, each family's samples in
// one contiguous run, and histogram buckets cumulative with an `le="+Inf"`
// bucket equal to `_count`. Callers only have to name each family once.
//
// Numbers print as plain integers (counts) or `%.9g` (seconds, ratios,
// scaled histogram bounds). Label values are written verbatim; callers pass
// plain identifiers that need no escaping.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "service/latency_histogram.hpp"

namespace dsteiner::obs {

enum class prom_type : std::uint8_t { counter, gauge, histogram };

struct prom_label {
  std::string_view name;
  std::string_view value;
};

using prom_labels = std::initializer_list<prom_label>;

class prom_writer {
 public:
  /// Appends to `out`; every family name is `<prefix>_<name>`.
  prom_writer(std::string& out, std::string_view prefix)
      : out_(out), prefix_(prefix) {}

  /// Starts a family: writes its HELP and TYPE lines.
  prom_writer& family(std::string_view name, prom_type type,
                      std::string_view help);

  /// One sample of the current family: `<family>{labels} value`.
  prom_writer& sample(std::uint64_t value, prom_labels labels = {});
  prom_writer& sample(double value, prom_labels labels = {});

  /// A one-sample counter or gauge family.
  template <typename T>
  prom_writer& counter(std::string_view name, std::string_view help, T value) {
    return family(name, prom_type::counter, help).sample(value);
  }
  template <typename T>
  prom_writer& gauge(std::string_view name, std::string_view help, T value) {
    return family(name, prom_type::gauge, help).sample(value);
  }

  /// A histogram family from per-bucket counts: cumulative `_bucket` series
  /// for every log2 bound, then `le="+Inf"`, `_sum` and `_count`. +Inf and
  /// `_count` both use the summed buckets, never the snapshot's separate
  /// count, so a racy snapshot cannot break +Inf == _count. `scale`
  /// multiplies every bound and the sum — the grid is laid out in seconds,
  /// and byte-valued series record bytes x 1/scale.
  prom_writer& histogram(std::string_view name, std::string_view help,
                         const service::latency_histogram::snapshot_data& hist,
                         double scale = 1.0);

 private:
  /// Writes the line `<prefix>_<name><suffix>{labels} value`.
  template <typename T>
  void write_sample(std::string_view suffix, prom_labels labels, T value);

  std::string& out_;
  std::string_view prefix_;
  std::string name_;  ///< current family, without the prefix
};

}  // namespace dsteiner::obs
