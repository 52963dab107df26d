// Per-rank visitor mailboxes.
//
// The paper's key optimization (§IV, §V-C) is replacing HavoqGT's default
// FIFO message queue with a *priority* queue that gives precedence to
// messages from vertices at lower tentative distance — approximating
// Dijkstra's settling order inside an asynchronous Bellman-Ford and cutting
// message volume by up to 22x (Fig. 6). Both policies are provided so the
// Fig. 5/6/7 experiments can compare them.
//
// FIFO is arrival order, nothing more: every pushed visitor is popped.
//
// Priority is an indexed binary heap with decrease-key. A visitor type can
// opt in (see keyed_visitor) by naming a key, its target vertex, and an
// order among visitors for one key. The engine then hands its boxes a
// shared position index, one slot per vertex, and a box holds at most one
// entry per key: a keyed push either replaces the queued entry (when it
// supersedes it) or is dropped. That is Dijkstra's one-label-per-vertex
// queue. Without the opt-in, or without an index, the heap keeps every
// push, and stale entries are left for the handler to skip when they pop.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace dsteiner::runtime {

enum class queue_policy {
  fifo,      ///< HavoqGT default: arrival order
  priority,  ///< paper's optimization: lowest Visitor::priority() first
};

/// A visitor that may merge with the entry queued for the same key.
/// `queue_key()` is the vertex the visitor carries a label for, or
/// graph::k_no_vertex for "never merge". `a.supersedes(b)` for two visitors
/// with one key says a's label beats b's; it must be a strict order.
template <typename Visitor>
concept keyed_visitor = requires(const Visitor& v) {
  { v.queue_key() } -> std::convertible_to<graph::vertex_id>;
  { v.supersedes(v) } -> std::convertible_to<bool>;
};

/// Single-rank mailbox. `Visitor` must expose `std::uint64_t priority()
/// const`. Priority ties are broken by arrival order (stable), keeping runs
/// deterministic.
///
/// Aligned to 128 bytes (a pair of cache lines, the unit the adjacent-line
/// prefetcher moves): the threaded engine keeps one box per rank in a
/// vector, neighbouring ranks run on different workers, and every push and
/// pop writes the box's header.
template <typename Visitor>
class alignas(128) mailbox {
 public:
  /// Heap position of a key's queued entry, or k_no_slot.
  static constexpr std::uint32_t k_no_slot =
      std::numeric_limits<std::uint32_t>::max();

  /// The position index an engine shares across its boxes: one slot per
  /// vertex when the policy is priority and Visitor is keyed, else empty
  /// (no merging). Each key is only ever queued in its owner's box, so the
  /// boxes write disjoint slots.
  [[nodiscard]] static std::vector<std::uint32_t> make_index(
      queue_policy policy, std::uint64_t num_vertices) {
    if (index_bytes(policy, num_vertices) == 0) return {};
    return std::vector<std::uint32_t>(num_vertices, k_no_slot);
  }

  /// Fig. 8 accounting for make_index's table.
  [[nodiscard]] static constexpr std::uint64_t index_bytes(
      queue_policy policy, std::uint64_t num_vertices) noexcept {
    if (!keyed_visitor<Visitor> || policy != queue_policy::priority) return 0;
    return num_vertices * sizeof(std::uint32_t);
  }

  /// `index` comes from make_index (or is empty); it must outlive the box
  /// and is read only for keyed visitors under priority.
  explicit mailbox(queue_policy policy = queue_policy::priority,
                   std::span<std::uint32_t> index = {})
      : policy_(policy), index_(index) {}

  [[nodiscard]] queue_policy policy() const noexcept { return policy_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return policy_ == queue_policy::fifo ? fifo_.size() : heap_.size();
  }

  /// Queues `v` and reports whether the queue grew. A keyed push whose key
  /// is already queued merges instead: `v` replaces the queued entry if it
  /// supersedes it, taking a new arrival sequence, and is dropped
  /// otherwise. A merge returns false; exactly one visitor is gone.
  bool push(const Visitor& v) {
    if (policy_ == queue_policy::fifo) {
      fifo_.push_back(v);
      return true;
    }
    if constexpr (keyed_visitor<Visitor>) {
      const std::uint32_t* slot = slot_of(v);
      if (slot != nullptr && *slot != k_no_slot) {
        const std::size_t i = *slot;
        if (v.supersedes(heap_[i].visitor)) {
          heap_[i] = {v.priority(), next_sequence_++, v};
          // A smaller priority moves toward the root; an equal one with its
          // later sequence may move toward the leaves.
          if (i > 0 && before(heap_[i], heap_[(i - 1) / 2])) {
            sift_up(i);
          } else {
            sift_down(i);
          }
        }
        return false;
      }
    }
    heap_.push_back({v.priority(), next_sequence_++, v});
    sift_up(heap_.size() - 1);
    return true;
  }

  [[nodiscard]] Visitor pop() {
    if (policy_ == queue_policy::fifo) {
      Visitor v = std::move(fifo_.front());
      fifo_.pop_front();
      return v;
    }
    Visitor top = std::move(heap_.front().visitor);
    if (std::uint32_t* slot = slot_of(top)) *slot = k_no_slot;
    heap_entry last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = std::move(last);
      sift_down(0);
    }
    return top;
  }

  void clear() {
    fifo_.clear();
    for (const heap_entry& e : heap_) {
      if (std::uint32_t* slot = slot_of(e.visitor)) *slot = k_no_slot;
    }
    heap_.clear();
  }

 private:
  struct heap_entry {
    std::uint64_t priority;
    std::uint64_t sequence;
    Visitor visitor;
  };

  /// Min-heap order on (priority, sequence); sequences are unique, so the
  /// pop order is a total order any heap layout reproduces.
  [[nodiscard]] static bool before(const heap_entry& a,
                                   const heap_entry& b) noexcept {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.sequence < b.sequence;
  }

  /// The index slot of `v`'s key, or null when `v` does not merge.
  [[nodiscard]] std::uint32_t* slot_of(const Visitor& v) noexcept {
    if constexpr (keyed_visitor<Visitor>) {
      if (index_.empty()) return nullptr;
      const graph::vertex_id key = v.queue_key();
      if (key == graph::k_no_vertex) return nullptr;
      assert(key < index_.size());
      return &index_[key];
    } else {
      (void)v;
      return nullptr;
    }
  }

  /// Moves `e` into heap position `i` and records the position.
  void place(std::size_t i, heap_entry&& e) {
    heap_[i] = std::move(e);
    if (std::uint32_t* slot = slot_of(heap_[i].visitor)) {
      *slot = static_cast<std::uint32_t>(i);
    }
  }

  void sift_up(std::size_t i) {
    heap_entry moving = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(moving, heap_[parent])) break;
      place(i, std::move(heap_[parent]));
      i = parent;
    }
    place(i, std::move(moving));
  }

  void sift_down(std::size_t i) {
    heap_entry moving = std::move(heap_[i]);
    const std::size_t n = heap_.size();
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], moving)) break;
      place(i, std::move(heap_[child]));
      i = child;
    }
    place(i, std::move(moving));
  }

  queue_policy policy_;
  std::span<std::uint32_t> index_;
  std::deque<Visitor> fifo_;
  std::vector<heap_entry> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace dsteiner::runtime
