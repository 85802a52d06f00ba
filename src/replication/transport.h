#ifndef LAZYSI_REPLICATION_TRANSPORT_H_
#define LAZYSI_REPLICATION_TRANSPORT_H_

#include <chrono>
#include <thread>

#include "common/queue.h"
#include "common/random.h"
#include "replication/messages.h"

namespace lazysi {
namespace replication {

/// WAN delay stage in front of a secondary's update queue: delivers records
/// in FIFO order after a configurable latency with optional jitter.
/// ReplicatedSystem puts one between each secondary's stream receiver and
/// its update queue to model WAN replicas in the real (threaded) system, the
/// way `propagation_delay` does in the simulator.
///
/// The paper assumes propagated messages are neither lost nor reordered
/// (Section 3.2); accordingly, jitter here delays deliveries but can never
/// reorder them — each record's delivery time is clamped to be no earlier
/// than its predecessor's.
class LatencyChannel {
 public:
  struct Options {
    std::chrono::milliseconds latency{0};
    /// Uniform extra delay in [0, jitter].
    std::chrono::milliseconds jitter{0};
    std::uint64_t seed = 1;
  };

  LatencyChannel(BlockingQueue<PropagationRecord>* downstream,
                 Options options)
      : downstream_(downstream), options_(options), rng_(options.seed) {}

  ~LatencyChannel() { Stop(); }

  LatencyChannel(const LatencyChannel&) = delete;
  LatencyChannel& operator=(const LatencyChannel&) = delete;

  /// The queue upstream pushes records into (a propagator sink or a stream
  /// receiver's downstream).
  BlockingQueue<PropagationRecord>* inlet() { return &inlet_; }

  void Start() {
    if (started_) return;
    started_ = true;
    // Reopen after a Stop(): records pushed while the channel was down were
    // dropped (a dead link loses traffic); delivery resumes with the next
    // record pushed into the reopened inlet.
    inlet_.Reopen();
    thread_ = std::thread([this] { Run(); });
  }

  /// Drains whatever has already arrived (with its delay) and stops.
  void Stop() {
    if (!started_) return;
    inlet_.Close();
    thread_.join();
    started_ = false;
  }

  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  void Run() {
    auto last_delivery = std::chrono::steady_clock::now();
    while (auto record = inlet_.Pop()) {
      auto due = std::chrono::steady_clock::now() + options_.latency;
      if (options_.jitter.count() > 0) {
        due += std::chrono::milliseconds(
            rng_.UniformInt(0, options_.jitter.count()));
      }
      // FIFO: never deliver before the previous record.
      if (due < last_delivery) due = last_delivery;
      std::this_thread::sleep_until(due);
      last_delivery = due;
      downstream_->Push(std::move(*record));
      delivered_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  BlockingQueue<PropagationRecord> inlet_;
  BlockingQueue<PropagationRecord>* downstream_;
  Options options_;
  Rng rng_;
  std::thread thread_;
  std::atomic<std::uint64_t> delivered_{0};
  bool started_ = false;
};

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_TRANSPORT_H_
