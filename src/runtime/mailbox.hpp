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
#include <map>
#include <vector>

namespace dsteiner::runtime {

enum class queue_policy {
  fifo,      ///< HavoqGT default: arrival order
  priority,  ///< paper's optimization: lowest Visitor::priority() first
};

/// `mailbox::min_bucket()` when the box is empty (also the min-fold identity
/// for the barrier's bucket aggregation).
inline constexpr std::uint64_t k_no_bucket = UINT64_MAX;

/// Single-rank mailbox. `Visitor` must expose `std::uint64_t priority()
/// const`. Priority ties are broken by arrival order (stable), keeping runs
/// deterministic.
///
/// A non-zero `bucket_delta` switches the box into delta-stepping bucket
/// mode (overriding `policy`): visitors are grouped by `priority() / delta`
/// into FIFO buckets and popped from the lowest non-empty bucket. Cheaper
/// than the heap (amortized O(1) per push/pop within a bucket) and exposes
/// `min_bucket()` so the engines can drain exactly one bucket per round.
template <typename Visitor>
class mailbox {
 public:
  explicit mailbox(queue_policy policy = queue_policy::priority,
                   std::uint64_t bucket_delta = 0)
      : policy_(policy), delta_(bucket_delta) {}

  [[nodiscard]] queue_policy policy() const noexcept { return policy_; }
  [[nodiscard]] bool bucketed() const noexcept { return delta_ != 0; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    if (delta_ != 0) return bucket_count_;
    return policy_ == queue_policy::fifo ? fifo_.size() : heap_.size();
  }

  /// Bucket index of the lowest-priority queued visitor; k_no_bucket when
  /// empty or not in bucket mode.
  [[nodiscard]] std::uint64_t min_bucket() const noexcept {
    if (delta_ == 0 || buckets_.empty()) return k_no_bucket;
    return buckets_.begin()->first;
  }

  void push(const Visitor& v) {
    if (delta_ != 0) {
      buckets_[v.priority() / delta_].push_back(v);
      ++bucket_count_;
      return;
    }
    if (policy_ == queue_policy::fifo) {
      fifo_.push_back(v);
      return;
    }
    heap_.push_back({v.priority(), next_sequence_++, v});
    std::push_heap(heap_.begin(), heap_.end(), heap_greater{});
  }

  [[nodiscard]] Visitor pop() {
    if (delta_ != 0) {
      auto it = buckets_.begin();
      Visitor v = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) buckets_.erase(it);
      --bucket_count_;
      return v;
    }
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
    buckets_.clear();
    bucket_count_ = 0;
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
  std::uint64_t delta_;  ///< bucket width; 0 = not in bucket mode
  std::deque<Visitor> fifo_;
  std::vector<heap_entry> heap_;
  std::uint64_t next_sequence_ = 0;
  // Bucket mode: ordered map keeps the lowest bucket at begin(); each bucket
  // is FIFO so intra-bucket order is arrival order (deterministic per
  // engine/thread-count, though not across them — that's the point).
  std::map<std::uint64_t, std::deque<Visitor>> buckets_;
  std::size_t bucket_count_ = 0;
};

}  // namespace dsteiner::runtime
