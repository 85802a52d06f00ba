#ifndef LAZYSI_REPLICATION_TCP_REPLICATION_H_
#define LAZYSI_REPLICATION_TCP_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/status.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "replication/framed_socket.h"
#include "replication/messages.h"
#include "replication/propagator.h"

namespace lazysi {
namespace replication {

/// The replication stream: Section 3.2 assumes propagated messages are "not
/// lost or reordered", and this pair of endpoints provides exactly that on
/// top of TCP. TCP keeps bytes in order and loss-free within a connection,
/// so loss shows up only as a dropped connection, and repair is the
/// reconnect handshake:
///
///   secondary -> HELLO { expected_seq, from_lsn }
///   primary:  expected_seq > 0 -> AttachSinkAt(SyncPointAtOrBefore(E).lsn)
///             expected_seq == 0 -> AttachSinkAt(from_lsn)  (cold start /
///                                  restart after kill -9 / restart from a
///                                  checkpoint: replay from that LSN)
///   primary -> WELCOME { base_seq }
///   primary -> BATCH { n, record* } | DATA { record }
///   secondary -> ACK { cum_seq }*
///
/// The replayed suffix may overlap what the secondary already applied
/// (sync points quantize downward); global record sequence numbers let the
/// receiver drop the overlap as duplicates (Section 3.4's recovery
/// machinery). Both the deployed processes and every secondary of the
/// in-process ReplicatedSystem run this one stream.
///
/// Both endpoints run on a net::EventLoop: connections are non-blocking and
/// reactor-registered, so I/O thread count is O(loops), not O(secondaries).
/// The hot direction coalesces records into BATCH frames (one length prefix
/// + tag + count for a whole run, one writev per frame instead of one
/// send() per record); single-record DATA frames remain understood for
/// compatibility and as the batching=false mode.

/// One-byte frame tags of the cross-process propagation stream. Exposed for
/// the framing fuzz corpus.
constexpr char kReplHelloTag = 'H';    // secondary -> primary
constexpr char kReplWelcomeTag = 'W';  // primary -> secondary
constexpr char kReplDataTag = 'D';     // one record
constexpr char kReplBatchTag = 'B';    // varint count + that many records
constexpr char kReplAckTag = 'A';      // cumulative seq

/// How long the listener waits for an accepted connection's HELLO. A peer
/// that sends nothing (or anything but a HELLO) first is dropped, so it
/// cannot hold a connection and its propagator-side state.
constexpr std::chrono::milliseconds kHelloDeadline{2000};

/// Builds one BATCH frame payload: tag + varint(count) + count encoded
/// records. The listener's pump produces the same bytes incrementally;
/// exposed for the framing fuzz corpus and benchmarks.
std::string EncodeBatchFramePayload(
    const std::vector<PropagationRecord>& records);

/// Decodes a BATCH frame payload (*offset at the tag byte), appending each
/// record to *out as it decodes. False — with *offset wherever the parse
/// stopped, never past frame.size() — on a malformed count varint, a
/// malformed or truncated record, or trailing bytes after the declared
/// count: all of these mean the stream is damaged and the connection must
/// drop. Never allocates proportional to the claimed count.
bool DecodeBatchFramePayload(const std::string& frame, std::size_t* offset,
                             std::vector<PropagationRecord>* out);

/// Fault rates injected at a receiver's intake, each drawn independently per
/// record frame (DATA or BATCH) after the handshake. All zero (the default)
/// models the paper's assumed network and draws nothing. The faults are the
/// ones a TCP stream can actually exhibit, each repaired by the reconnect
/// handshake or by seq dedup.
struct FaultProfile {
  /// P(frame lost). A TCP stream loses bytes only together with the
  /// connection, so a drop also cuts it.
  double drop_probability = 0.0;
  /// P(frame handled twice); seq dedup absorbs the copy.
  double duplicate_probability = 0.0;
  /// P(frame torn: one or more bytes cut off its end). Every record
  /// encoding ends in a mandatory field, so the decoder rejects the torn
  /// frame and the receiver resyncs.
  double corrupt_probability = 0.0;
  /// P(connection cut after the frame is handled).
  double disconnect_probability = 0.0;

  bool any() const {
    return drop_probability > 0 || duplicate_probability > 0 ||
           corrupt_probability > 0 || disconnect_probability > 0;
  }
};

/// How often each FaultProfile fault actually fired.
struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t disconnects = 0;
};

/// Primary-side listener: accepts one connection per secondary. Every
/// connection shares the listener's event loop; per connection there is a
/// propagator sink (queue) whose wakeup hook schedules a pump task that
/// encodes records into frames and hands them to the connection's bounded
/// output buffer. When a slow secondary's buffer hits max_output_bytes the
/// pump simply stops pulling from the sink (backpressure) until the drain
/// callback fires — nothing buffers unboundedly in userspace.
class ReplicationListener {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; see port() after Start
    /// Shared reactor; nullptr = the listener owns (and starts) its own.
    net::EventLoop* loop = nullptr;
    /// Coalesce records into BATCH frames (false = one DATA frame per
    /// record, the PR 8 wire shape).
    bool batching = true;
    std::size_t max_batch_records = 128;
    std::size_t max_batch_bytes = 256 * 1024;
    /// > 0: hold a partial batch this long for more records before
    /// flushing it (throughput over latency); 0 = flush a partial batch as
    /// soon as the sink runs dry.
    std::chrono::milliseconds batch_flush_interval{0};
    /// Per-connection output-buffer ceiling; at or above it the pump stops
    /// pulling from the propagator sink for that connection.
    std::size_t max_output_bytes = 1 << 20;
    /// Coverage filter passed to every AttachSinkAt, so a partially
    /// replicated secondary never receives uncovered updates, not even in
    /// a resync replay. Inactive (full replication) by default.
    SinkFilter filter;
  };

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t records_streamed = 0;
    std::uint64_t replay_attaches = 0;  // HELLOs answered via AttachSinkAt
    std::uint64_t frames_sent = 0;      // DATA + BATCH frames
    std::uint64_t batch_frames_sent = 0;
    std::uint64_t bytes_sent = 0;    // wire bytes accepted by the kernel
    std::uint64_t writev_calls = 0;  // flush syscalls across connections
    std::uint64_t flushes = 0;       // flushes that fully drained a buffer
    std::uint64_t backpressure_stalls = 0;  // pump paused on a full buffer
  };

  ReplicationListener(Propagator* propagator, Options options);
  ~ReplicationListener();

  ReplicationListener(const ReplicationListener&) = delete;
  ReplicationListener& operator=(const ReplicationListener&) = delete;

  Status Start();
  void Stop();

  std::uint16_t port() const { return port_; }
  Stats stats() const;
  net::EventLoop* loop() { return loop_; }

  /// Lowest LSN any live secondary may still need for a resync: the minimum
  /// over live connections of the quiesced point at or below that
  /// connection's cumulative acked record seq. The checkpointer's truncation
  /// floor must not exceed this, or a reconnecting secondary's replay would
  /// hit truncated log. UINT64_MAX when no connection is live (nothing
  /// holds the log back).
  std::uint64_t MinAckFloor() const;

 private:
  struct Conn {
    std::shared_ptr<net::Connection> nc;
    TcpFramer framer;  // loop thread only
    BlockingQueue<PropagationRecord> sink;
    std::atomic<std::uint64_t> acked{0};
    std::atomic<bool> attached{false};
    std::atomic<bool> done{false};  // closed; ignore in MinAckFloor
    std::atomic<bool> pump_scheduled{false};
    // Loop-thread-only protocol state.
    bool hello_done = false;
    bool stalled = false;
    std::string pending_body;  // encoded records awaiting a BATCH frame
    std::size_t pending_n = 0;
    bool flush_timer_armed = false;
    net::EventLoop::TimerId flush_timer = 0;
    net::EventLoop::TimerId hello_timer = 0;  // 0 once HELLO arrived
  };

  void OnAcceptable();
  void OnConnBytes(const std::shared_ptr<Conn>& conn, std::string_view bytes);
  void OnConnClosed(const std::shared_ptr<Conn>& conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn,
                   const std::string& frame);
  /// Attach worker thread: full-log replays can take a while, so HELLO
  /// handling runs off-loop (one worker serves all connections — thread
  /// count stays O(1)).
  void HandleAttach(const std::shared_ptr<Conn>& conn, std::uint64_t expected,
                    std::uint64_t from_lsn);
  void SchedulePump(const std::weak_ptr<Conn>& weak);
  void PumpConn(const std::shared_ptr<Conn>& conn);
  void EmitBatch(Conn* conn);
  void WriteFrame(Conn* conn, std::string_view payload);

  Propagator* propagator_;
  Options options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::unique_ptr<net::EventLoop> owned_loop_;
  net::EventLoop* loop_ = nullptr;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::thread attach_worker_;
  BlockingQueue<std::function<void()>> attach_q_;

  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;  // guarded by conns_mu_

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> records_streamed_{0};
  std::atomic<std::uint64_t> replay_attaches_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> batch_frames_sent_{0};
  std::atomic<std::uint64_t> backpressure_stalls_{0};
  // bytes/writev/flush counters of connections that already closed; stats()
  // adds the live connections' counters on top.
  std::atomic<std::uint64_t> retired_bytes_sent_{0};
  std::atomic<std::uint64_t> retired_writev_calls_{0};
  std::atomic<std::uint64_t> retired_flushes_{0};
};

/// Secondary-side stream client: dials the primary (non-blocking, on the
/// loop), handshakes, and feeds decoded records into the secondary's update
/// queue, deduplicating any replay overlap by global sequence number.
/// Reconnects with a fresh handshake whenever the connection drops; redial
/// delay is exponential with a cap and jitter so a dead primary's return
/// doesn't see the whole fleet dial in lock-step.
class ReplicationReceiver {
 public:
  struct Options {
    std::string primary_host = "127.0.0.1";
    std::uint16_t primary_port = 0;
    /// Cumulative ack every this many accepted records (acks are advisory —
    /// TCP carries the reliability — but keep the primary's lag visible).
    std::size_t ack_interval = 64;
    /// Initial redial delay; doubles per failed attempt up to the cap.
    std::chrono::milliseconds reconnect_backoff{50};
    std::chrono::milliseconds reconnect_backoff_max{2000};
    /// Redial delay randomized to delay * (1 ± jitter).
    double reconnect_jitter = 0.2;
    std::uint64_t jitter_seed = 0x5eedf00d;
    /// Quiesced LSN (e.g. a checkpoint's) to request the replay from while
    /// nothing has been delivered yet; the receiver then takes WELCOME's
    /// base_seq as its first expected seq (0 = full log).
    std::size_t from_lsn = 0;
    /// Shared reactor; nullptr = the receiver owns (and starts) its own.
    net::EventLoop* loop = nullptr;
    /// Fault injection at the intake, drawn from a generator seeded with
    /// fault_seed so a run replays its exact fault schedule.
    FaultProfile faults;
    std::uint64_t fault_seed = 1;
  };

  struct Stats {
    std::uint64_t records_delivered = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t decode_rejected = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t dial_attempts = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t batch_frames_received = 0;
    std::uint64_t bytes_received = 0;
  };

  ReplicationReceiver(BlockingQueue<PropagationRecord>* downstream,
                      Options options);
  ~ReplicationReceiver();

  ReplicationReceiver(const ReplicationReceiver&) = delete;
  ReplicationReceiver& operator=(const ReplicationReceiver&) = delete;

  void Start();
  void Stop();

  /// Fault injection: severs the current connection without stopping the
  /// receiver, forcing a reconnect + handshake resync at the current
  /// position (tests the replay-overlap dedup path).
  void CutConnection();

  Stats stats() const;
  FaultCounters fault_counters() const;
  std::uint64_t next_expected() const {
    return next_expected_.load(std::memory_order_acquire);
  }
  net::EventLoop* loop() { return loop_; }

 private:
  // All of these run on the loop thread.
  void StartDial();
  void OnDialDone(int fd, bool ok);
  void OnBytes(std::string_view bytes);
  void HandleFrame(const std::string& frame);
  /// Applies the fault profile's draws to one record frame, then hands it
  /// (torn, twice, or not at all) to HandleRecordFrame.
  void InjectFaults(const std::string& frame);
  /// Decodes and delivers one DATA or BATCH frame.
  void HandleRecordFrame(const std::string& frame);
  /// Returns false when the stream is damaged and the connection must drop.
  bool HandleRecord(PropagationRecord record);
  void OnClosed();
  void ScheduleRedial();

  BlockingQueue<PropagationRecord>* downstream_;
  Options options_;
  std::unique_ptr<net::EventLoop> owned_loop_;
  net::EventLoop* loop_ = nullptr;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::atomic<std::uint64_t> next_expected_{0};

  // Loop-thread-only state.
  std::shared_ptr<net::Connection> current_;
  TcpFramer framer_;
  int pending_fd_ = -1;  // non-blocking connect in flight
  net::EventLoop::TimerId redial_timer_ = 0;
  bool handshaken_ = false;
  bool had_connection_ = false;
  std::size_t since_ack_ = 0;
  ExponentialBackoff backoff_;
  Rng rng_;
  Rng fault_rng_;
  std::uint64_t conn_epoch_ = 0;  // guards stale dial callbacks

  std::atomic<std::uint64_t> records_delivered_{0};
  std::atomic<std::uint64_t> duplicates_dropped_{0};
  std::atomic<std::uint64_t> decode_rejected_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> dial_attempts_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> batch_frames_received_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> faults_dropped_{0};
  std::atomic<std::uint64_t> faults_duplicated_{0};
  std::atomic<std::uint64_t> faults_corrupted_{0};
  std::atomic<std::uint64_t> faults_disconnects_{0};
};

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_TCP_REPLICATION_H_
