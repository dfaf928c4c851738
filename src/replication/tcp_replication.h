#ifndef LAZYSI_REPLICATION_TCP_REPLICATION_H_
#define LAZYSI_REPLICATION_TCP_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "engine/recovery.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/framed_socket.h"
#include "replication/fault_shim.h"
#include "replication/messages.h"
#include "replication/partition_map.h"
#include "replication/propagator.h"

namespace lazysi {
namespace replication {

class Primary;
class Secondary;

/// The replication stream: the one protocol that carries propagation records
/// from a primary to its secondaries, both across processes and inside
/// ReplicatedSystem's transported mode. It leans on TCP for in-order,
/// loss-free delivery within a connection, so loss shows up only as a
/// dropped connection, and repair is the reconnect handshake:
///
///   secondary -> HELLO { expected_seq, from_lsn }
///   primary:  expected_seq > 0 -> AttachSinkAt(SyncPointAtOrBefore(E).lsn)
///             expected_seq == 0 -> AttachSinkAt(from_lsn)  (cold start,
///                                  restart after kill -9, or recovery from
///                                  a checkpoint taken at from_lsn)
///   primary -> WELCOME { base_seq }
///   primary -> BATCH { n, record* }*
///   secondary -> ACK { seq }*
///
/// When the log no longer reaches back to the HELLO's position, the answer
/// depends on what the secondary holds:
///
///   - nothing (expected_seq == 0, from_lsn == 0): a snapshot rejoin. The
///     listener attaches the sink at the latest sync point (seq B), pins a
///     snapshot of the primary at as_of (Database::PinCheckpoint), and
///     streams it one store shard at a time:
///       primary -> SNAPSHOT { as_of, chunk }*
///       primary -> WELCOME { B, as_of, rows }
///     The secondary installs the rows as one local transaction, seeds
///     seq(DBsec) at as_of (Section 4), and turns every streamed commit at
///     or below as_of — already in the snapshot — into an abort;
///   - state (expected_seq > 0, or a checkpoint's from_lsn): a typed
///     refusal, primary -> REFUSE { reason }. The secondary stops
///     redialing and keeps serving reads at its last seq(DBsec).
///
/// Every frame ends in a CRC-32C of its payload (SealReplFrame); a frame
/// that fails it cuts the connection. The replayed suffix may overlap what
/// the secondary already applied (sync points quantize downward); global
/// record sequence numbers let the listener skip the overlap and the
/// receiver drop any duplicate that still arrives (Section 3.4's recovery
/// machinery reused at transport level).
///
/// Both endpoints run on a net::EventLoop: connections are non-blocking and
/// reactor-registered, so I/O thread count is O(loops), not O(secondaries).
/// Records are coalesced into BATCH frames (one length prefix + tag + count
/// for a whole run, one writev per frame instead of one send() per record).

/// One-byte frame tags of the replication stream. Exposed for the framing
/// fuzz corpus.
constexpr char kReplHelloTag = 'H';    // secondary -> primary
constexpr char kReplWelcomeTag = 'W';  // primary -> secondary
constexpr char kReplBatchTag = 'B';    // varint count + that many records
constexpr char kReplAckTag = 'A';      // seq of the last delivered record
constexpr char kReplSnapshotTag = 'S';  // as_of + one snapshot chunk
constexpr char kReplRefuseTag = 'R';    // why the primary cannot resync

/// Appends the CRC-32C trailer to a replication-stream frame payload. The
/// sealed frame is what crosses the wire inside the TCP length prefix.
void SealReplFrame(std::string* frame);

/// Verifies and strips the CRC-32C trailer of a frame TcpFramer yielded.
/// False when the frame is too short to carry one or the checksum does not
/// match: the stream is damaged and the connection must drop.
bool UnsealReplFrame(std::string* frame);

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

/// Decodes a SNAPSHOT frame payload (*offset at the tag byte): tag +
/// varint(as_of) + one snapshot chunk (engine/recovery.h), handing each row
/// to `row` as it decodes. False on a malformed header or chunk, or trailing
/// bytes: the stream is damaged and the connection must drop.
bool DecodeSnapshotFramePayload(std::string_view frame, std::size_t* offset,
                                Timestamp* as_of,
                                const engine::SnapshotRowFn& row);

/// Primary-side listener: accepts one connection per secondary. Every
/// connection shares the listener's event loop; per connection there is a
/// propagator sink (queue) whose wakeup hook schedules a pump task that
/// encodes records into frames and hands them to the connection's bounded
/// output buffer. When a slow secondary's buffer hits max_output_bytes the
/// pump simply stops pulling from the sink (backpressure) until the drain
/// callback fires — nothing buffers unboundedly in userspace. A snapshot
/// stream obeys the same ceiling: the attach worker waits for the drain
/// before writing the next SNAPSHOT frame.
class ReplicationListener {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; see port() after Start
    /// Shared reactor; nullptr = the listener owns (and starts) its own.
    net::EventLoop* loop = nullptr;
    std::size_t max_batch_records = 128;
    std::size_t max_batch_bytes = 256 * 1024;
    /// > 0: hold a partial batch this long for more records before
    /// flushing it (throughput over latency); 0 = flush a partial batch as
    /// soon as the sink runs dry.
    std::chrono::milliseconds batch_flush_interval{0};
    /// Per-connection output-buffer ceiling; at or above it the pump stops
    /// pulling from the propagator sink for that connection.
    std::size_t max_output_bytes = 1 << 20;
    /// Coverage filter applied to every attach — first HELLO and every
    /// resync replay — so a partially replicated secondary never receives
    /// uncovered updates.
    SinkFilter filter;
    /// Faults injected into every frame this listener writes (all zero =
    /// none), drawn from an RNG seeded with fault_seed.
    FaultProfile faults;
    std::uint64_t fault_seed = 1;
  };

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t records_streamed = 0;
    std::uint64_t replay_attaches = 0;  // HELLOs answered via AttachSinkAt
    std::uint64_t attach_refusals = 0;  // HELLOs the propagator refused
    std::uint64_t snapshot_attaches = 0;  // fresh HELLOs answered by snapshot
    std::uint64_t snapshot_bytes = 0;     // SNAPSHOT frame payload bytes
    std::uint64_t resume_refusals = 0;    // REFUSE answers: resync point gone
    std::uint64_t frames_sent = 0;      // BATCH frames
    std::uint64_t bytes_sent = 0;    // wire bytes accepted by the kernel
    std::uint64_t writev_calls = 0;  // flush syscalls across connections
    std::uint64_t flushes = 0;       // flushes that fully drained a buffer
    std::uint64_t backpressure_stalls = 0;  // pump paused on a full buffer
    FaultShim::Counters faults;             // all zero without injection
  };

  /// Without a database to snapshot, a fresh secondary that the log no
  /// longer reaches is refused like a resuming one.
  ReplicationListener(Propagator* propagator, Options options);
  /// Streams snapshots of primary->db() to fresh secondaries.
  ReplicationListener(Primary* primary, Options options);
  ~ReplicationListener();

  ReplicationListener(const ReplicationListener&) = delete;
  ReplicationListener& operator=(const ReplicationListener&) = delete;

  Status Start();
  void Stop();

  std::uint16_t port() const { return port_; }
  Stats stats() const;

  /// Lowest LSN any secondary may still need for a resync: the minimum over
  /// live connections, and over connections closed less than kResumeGrace
  /// ago, of the quiesced point at or below the seq that connection resumes
  /// at (one past its cumulative ACK). A log truncation floor must not
  /// exceed this, or a reconnecting secondary's replay would hit truncated
  /// log. UINT64_MAX when no connection holds the log back.
  std::uint64_t MinAckFloor() const;

  /// How long a closed connection's ack floor still holds the log back: at
  /// least the receiver's longest redial delay (2 s cap, +20% jitter), so a
  /// cut-and-redial always resumes from the log, never from a snapshot.
  static constexpr std::chrono::milliseconds kResumeGrace{3000};

 private:
  struct Conn {
    std::shared_ptr<net::Connection> nc;
    net::TcpFramer framer;  // loop thread only
    BlockingQueue<PropagationRecord> sink;
    /// The seq the secondary resumes at: the attach base, then one past
    /// its cumulative ACK.
    std::atomic<std::uint64_t> acked{0};
    std::atomic<bool> attached{false};
    std::atomic<bool> done{false};  // closed; ignore in MinAckFloor
    std::atomic<bool> pump_scheduled{false};
    /// Wakes a snapshot stream waiting for output-buffer room.
    std::mutex room_mu;
    std::condition_variable room_cv;
    /// The HELLO's expected seq: replayed records below it are already at
    /// the secondary and never cross the wire. Written before `attached`.
    std::uint64_t resume_seq = 0;
    // Loop-thread-only protocol state.
    bool hello_done = false;
    bool stalled = false;
    std::string pending_body;  // encoded records awaiting a BATCH frame
    std::size_t pending_n = 0;
    bool flush_timer_armed = false;
    net::EventLoop::TimerId flush_timer = 0;
  };

  void OnAcceptable();
  void OnConnBytes(const std::shared_ptr<Conn>& conn, std::string_view bytes);
  void OnConnClosed(const std::shared_ptr<Conn>& conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn, std::string frame);
  /// Attach worker thread: full-log replays can take a while, so HELLO
  /// handling runs off-loop (one worker serves all connections — thread
  /// count stays O(1)).
  void HandleAttach(const std::shared_ptr<Conn>& conn, std::uint64_t expected,
                    std::uint64_t from_lsn);
  /// Attach worker: attaches the sink at the latest sync point, streams a
  /// pinned snapshot as SNAPSHOT frames, and appends { as_of, rows } to
  /// *welcome. Returns the sink's base seq; on failure the sink is detached.
  Result<std::uint64_t> StreamSnapshot(const std::shared_ptr<Conn>& conn,
                                       std::string* welcome);
  /// Blocks until the connection's output buffer is under max_output_bytes.
  /// False once the connection closed.
  bool WaitForRoom(Conn* conn);
  /// Answers a HELLO the log cannot serve with REFUSE { reason } and closes
  /// the connection. Logs at most once per second.
  void Refuse(const std::shared_ptr<Conn>& conn, const std::string& reason);
  void SchedulePump(const std::weak_ptr<Conn>& weak);
  void PumpConn(const std::shared_ptr<Conn>& conn);
  /// False when the fault shim cut the connection instead.
  bool EmitBatch(Conn* conn);
  /// Seals `payload`, runs it through the fault shim and queues it on the
  /// connection. False when the shim cut the connection instead.
  bool WriteFrame(Conn* conn, std::string payload);

  Propagator* propagator_;
  engine::Database* db_ = nullptr;  // snapshot source; null = none
  Options options_;
  std::unique_ptr<FaultShim> shim_;  // null without injected faults
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
  /// Ack seqs of recently closed connections, held until `until`.
  struct Lingering {
    std::chrono::steady_clock::time_point until;
    std::uint64_t acked = 0;
  };
  mutable std::vector<Lingering> lingering_;  // guarded by conns_mu_

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> records_streamed_{0};
  std::atomic<std::uint64_t> replay_attaches_{0};
  std::atomic<std::uint64_t> attach_refusals_{0};
  std::atomic<std::uint64_t> snapshot_attaches_{0};
  std::atomic<std::uint64_t> snapshot_bytes_{0};
  std::atomic<std::uint64_t> resume_refusals_{0};
  std::atomic<std::int64_t> last_refusal_log_ns_{0};  // 0 = never logged
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> backpressure_stalls_{0};
  // bytes/writev/flush counters of connections that already closed; stats()
  // adds the live connections' counters on top.
  std::atomic<std::uint64_t> retired_bytes_sent_{0};
  std::atomic<std::uint64_t> retired_writev_calls_{0};
  std::atomic<std::uint64_t> retired_flushes_{0};
};

/// Secondary-side stream client: dials the primary (non-blocking, on the
/// loop), handshakes, and feeds decoded records into the secondary's update
/// queue, deduplicating any replay overlap by global sequence number. A
/// receiver built on a Secondary also installs the snapshot a primary sends
/// a fresh secondary in place of a replay; one built on a bare queue treats
/// a snapshot like a refusal. After a REFUSE it stops redialing.
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
    /// Checkpoint LSN to request the replay from when starting with
    /// expected_seq == 0 (restart-from-checkpoint; 0 = full log).
    std::size_t from_lsn = 0;
    /// Shared reactor; nullptr = the receiver owns (and starts) its own.
    net::EventLoop* loop = nullptr;
  };

  struct Stats {
    std::uint64_t records_delivered = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t decode_rejected = 0;
    std::uint64_t crc_rejected = 0;  // frames failing their CRC-32C
    std::uint64_t reconnects = 0;    // WELCOMEs after the first
    std::uint64_t dial_attempts = 0;
    std::uint64_t frames_received = 0;  // BATCH frames
    std::uint64_t bytes_received = 0;
    std::uint64_t snapshots_installed = 0;
    std::uint64_t refusals = 0;  // the primary cannot resync this receiver
  };

  ReplicationReceiver(BlockingQueue<PropagationRecord>* downstream,
                      Options options);
  /// Feeds secondary->update_queue() and installs snapshots into it.
  ReplicationReceiver(Secondary* secondary, Options options);
  ~ReplicationReceiver();

  ReplicationReceiver(const ReplicationReceiver&) = delete;
  ReplicationReceiver& operator=(const ReplicationReceiver&) = delete;

  /// Dials the primary. After a Stop, Start resumes at next_expected().
  void Start();
  void Stop();

  /// Fault injection: severs the current connection without stopping the
  /// receiver, forcing a reconnect + handshake resync at the current
  /// position (tests the replay-overlap dedup path).
  void CutConnection();

  Stats stats() const;
  std::uint64_t next_expected() const {
    return next_expected_.load(std::memory_order_acquire);
  }
  /// True once a primary has answered a HELLO: the stream is attached.
  bool welcomed() const { return welcomed_.load(std::memory_order_acquire); }
  /// True once the primary refused to resync this receiver: it no longer
  /// redials (until the next Start).
  bool refused() const { return refused_.load(std::memory_order_acquire); }

 private:
  // All of these run on the loop thread.
  void StartDial();
  void OnDialDone(int fd, bool ok);
  void OnBytes(std::string_view bytes);
  void HandleFrame(std::string frame);
  /// WELCOME: installs a staged snapshot if one preceded it. False when the
  /// frame is malformed or the install failed; the connection must drop.
  bool HandleWelcome(const std::string& frame);
  /// SNAPSHOT: stages the frame's rows. False when the stream is damaged.
  bool HandleSnapshotFrame(const std::string& frame);
  /// Stops redialing for good (until the next Start) and cuts the stream.
  void Refused(const std::string& reason);
  /// Drops the rows of a snapshot cut short.
  void AbandonSnapshot();
  /// Returns false when the stream is damaged and the connection must drop.
  bool HandleRecord(PropagationRecord record);
  void OnClosed();
  void ScheduleRedial();
  /// Seals `payload` and writes it on the current connection, if any.
  void WriteFrame(std::string payload);

  BlockingQueue<PropagationRecord>* downstream_;
  Secondary* secondary_ = nullptr;  // snapshot target; null = none
  Options options_;
  std::unique_ptr<net::EventLoop> owned_loop_;
  net::EventLoop* loop_ = nullptr;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::atomic<std::uint64_t> next_expected_{0};
  std::atomic<bool> welcomed_{false};
  std::atomic<bool> refused_{false};

  // Loop-thread-only state.
  std::shared_ptr<net::Connection> current_;
  net::TcpFramer framer_;
  int pending_fd_ = -1;  // non-blocking connect in flight
  net::EventLoop::TimerId redial_timer_ = 0;
  bool handshaken_ = false;
  std::size_t since_ack_ = 0;
  ExponentialBackoff backoff_;
  Rng rng_;
  std::uint64_t conn_epoch_ = 0;  // guards stale dial callbacks
  /// Snapshot being staged on this connection: as_of and rows so far.
  Timestamp snapshot_as_of_ = kInvalidTimestamp;
  std::uint64_t snapshot_rows_ = 0;
  /// as_of of the installed snapshot: streamed commits at or below it are
  /// already installed and go downstream as aborts.
  Timestamp covered_through_ = kInvalidTimestamp;

  std::atomic<std::uint64_t> records_delivered_{0};
  std::atomic<std::uint64_t> duplicates_dropped_{0};
  std::atomic<std::uint64_t> decode_rejected_{0};
  std::atomic<std::uint64_t> crc_rejected_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> dial_attempts_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> snapshots_installed_{0};
  std::atomic<std::uint64_t> refusals_{0};
};

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_TCP_REPLICATION_H_
