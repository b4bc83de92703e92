// Run-wide metrics registry: named counters, gauges and fixed-bucket
// histograms with a JSON snapshot exporter. Instruments register lazily by
// name; references handed out stay valid for the registry's lifetime
// (node-based map storage).
//
// Concurrency: instruments are safe for concurrent writers — counters and
// gauges are relaxed atomics, histograms take a per-histogram mutex, and
// the name→instrument maps are guarded by a registry mutex — so isolated
// per-replication systems may share the global registry, and the parallel
// experiment runner can merge per-replication registries without torn
// state. Counter/gauge updates stay a single atomic add/store, cheap
// enough for the scheduler hot path. Snapshots taken while writers are
// active are internally consistent per instrument, not across instruments;
// deterministic output requires quiescence (which the batch layer's
// index-ordered merge provides).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dbs::obs {

/// Monotonically increasing count (events, decisions, protocol steps).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (queue length, free cores).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Buckets are cumulative-style on export
/// (Prometheus-like `le` upper bounds) but stored as disjoint counts; an
/// implicit +inf bucket catches everything above the last bound.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }
  /// Disjoint per-bucket counts; size == upper_bounds().size() + 1, the
  /// last entry being the +inf bucket. Copied under the histogram lock.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  /// Folds another histogram (same bounds) into this one: bucket counts
  /// and totals add. The sum accumulates `other.sum()` as one addition, so
  /// merging per-replication histograms in a fixed order is deterministic.
  void merge_from(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  mutable std::mutex mutex_;
};

/// Approximate quantile (0 <= q <= 1) of a fixed-bucket distribution:
/// finds the bucket holding the q-th observation and interpolates
/// linearly inside it (Prometheus histogram_quantile behavior). The +inf
/// bucket cannot be interpolated and reports the last finite bound; an
/// empty distribution reports 0. `bucket_counts` are the disjoint counts
/// from Histogram::bucket_counts().
[[nodiscard]] double histogram_quantile(
    const std::vector<double>& upper_bounds,
    const std::vector<std::uint64_t>& bucket_counts, double q);

class Registry {
 public:
  /// Finds or creates the named instrument. References remain valid until
  /// reset()/destruction.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` is used only on first registration; later calls with
  /// the same name return the existing histogram unchanged.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Deterministic (name-sorted) JSON snapshot of every instrument.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;
  /// Writes the snapshot to a file; returns false if it cannot be opened.
  bool write_json_file(const std::string& path) const;

  /// Folds `other` into this registry: counters add, histograms merge
  /// bucket-wise, gauges take `other`'s value (last-merge-wins, mirroring
  /// the last-writer-wins of sequential runs). Merging the isolated
  /// per-replication registries of a parallel campaign in replication
  /// order yields the same result for every worker count.
  void merge_from(const Registry& other);

  /// Drops every instrument (invalidates previously returned references).
  void reset();

  /// The process-wide default registry all components record into unless
  /// explicitly given another one.
  static Registry& global();

 private:
  mutable std::mutex mutex_;  ///< guards the maps, not instrument updates
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// A counter handle for per-event paths: the name is looked up on the
/// first add() only, and the pointer is kept after that. Lookup on first
/// use (not at construction) registers a name only once something counts
/// under it, so snapshots list exactly the names a per-event lookup would.
/// Owners replace their slots with fresh ones when they switch registries.
class CounterSlot {
 public:
  explicit constexpr CounterSlot(const char* name) : name_(name) {}

  void add(Registry& registry) {
    if (counter_ == nullptr) counter_ = &registry.counter(name_);
    counter_->add();
  }

 private:
  const char* name_;
  Counter* counter_ = nullptr;
};

}  // namespace dbs::obs
