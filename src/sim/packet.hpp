// Packets and per-node FIFO queues for the slot simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace ttdc::sim {

struct Packet {
  std::uint64_t id = 0;
  std::size_t origin = 0;       // node that generated it
  std::size_t destination = 0;  // final destination
  std::uint64_t created_slot = 0;
};

/// Bounded FIFO; pushes beyond capacity are dropped (and counted by the
/// simulator as queue drops).
///
/// Backed by a fixed ring buffer allocated once at construction: push/pop on
/// the simulator hot path never touch the heap (a deque here would allocate
/// and free chunks as the head crossed block boundaries, violating the
/// zero-allocation invariant of Simulator::step(), DESIGN.md §8).
class PacketQueue {
 public:
  explicit PacketQueue(std::size_t capacity) : buf_(capacity) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Returns false (drop) when full.
  bool push(const Packet& p) {
    TTDC_DCHECK(buf_.empty() ? head_ == 0 : head_ < buf_.size(),
                "PacketQueue::push on corrupt ring: head ", head_, " capacity ", buf_.size());
    if (size_ >= buf_.size()) return false;
    std::size_t tail = head_ + size_;
    if (tail >= buf_.size()) tail -= buf_.size();
    buf_[tail] = p;
    ++size_;
    return true;
  }

  [[nodiscard]] const Packet& front() const {
    TTDC_DCHECK(size_ > 0, "PacketQueue::front on empty queue");
    return buf_[head_];
  }

  void pop() {
    TTDC_DCHECK(size_ > 0, "PacketQueue::pop on empty queue");
    ++head_;
    if (head_ == buf_.size()) head_ = 0;
    --size_;
  }

  /// Ring invariants: the head cursor stays inside the buffer and the live
  /// count never exceeds capacity. Established by construction and every
  /// push/pop; Simulator::audit_invariants() re-verifies them per queue.
  void audit_invariants() const {
    TTDC_DCHECK(size_ <= buf_.size(), "PacketQueue: size ", size_, " exceeds capacity ",
                buf_.size());
    TTDC_DCHECK(buf_.empty() ? head_ == 0 : head_ < buf_.size(), "PacketQueue: head cursor ",
                head_, " outside ring of capacity ", buf_.size());
  }

 private:
  std::vector<Packet> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ttdc::sim
