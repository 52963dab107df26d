// Per-rank visitor mailboxes.
//
// The paper's key optimization (§IV, §V-C) is replacing HavoqGT's default
// FIFO message queue with a *priority* queue that gives precedence to
// messages from vertices at lower tentative distance — approximating
// Dijkstra's settling order inside an asynchronous Bellman-Ford and cutting
// message volume by up to 22x (Fig. 6). Both policies are provided so the
// Fig. 5/6/7 experiments can compare them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

namespace dsteiner::runtime {

enum class queue_policy {
  fifo,      ///< HavoqGT default: arrival order
  priority,  ///< paper's optimization: lowest Visitor::priority() first
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
  explicit mailbox(queue_policy policy = queue_policy::priority)
      : policy_(policy) {}

  [[nodiscard]] queue_policy policy() const noexcept { return policy_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return policy_ == queue_policy::fifo ? fifo_.size() : heap_.size();
  }

  void push(const Visitor& v) {
    if (policy_ == queue_policy::fifo) {
      fifo_.push_back(v);
      return;
    }
    heap_.push_back({v.priority(), next_sequence_++, v});
    std::push_heap(heap_.begin(), heap_.end(), heap_greater{});
  }

  [[nodiscard]] Visitor pop() {
    if (policy_ == queue_policy::fifo) {
      Visitor v = std::move(fifo_.front());
      fifo_.pop_front();
      return v;
    }
    std::pop_heap(heap_.begin(), heap_.end(), heap_greater{});
    Visitor v = std::move(heap_.back().visitor);
    heap_.pop_back();
    return v;
  }

  void clear() {
    fifo_.clear();
    heap_.clear();
  }

 private:
  struct heap_entry {
    std::uint64_t priority;
    std::uint64_t sequence;
    Visitor visitor;
  };

  // std::push/pop_heap build a max-heap; invert the comparison for a min-heap
  // on (priority, sequence).
  struct heap_greater {
    bool operator()(const heap_entry& a, const heap_entry& b) const noexcept {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.sequence > b.sequence;
    }
  };

  queue_policy policy_;
  std::deque<Visitor> fifo_;
  std::vector<heap_entry> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace dsteiner::runtime
