#ifndef LAZYSI_NET_EVENT_LOOP_H_
#define LAZYSI_NET_EVENT_LOOP_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace lazysi {
namespace net {

/// Single-threaded epoll reactor. One EventLoop thread multiplexes every
/// registered fd, so I/O thread count is O(loops), not O(connections) — the
/// scaling fix for the per-connection sender/acker/client threads of the
/// first TCP deployment (ROADMAP item 1).
///
/// Threading contract:
///   - AddFd / ModFd / RemoveFd are loop-thread-only (or before Start).
///     Cross-thread work reaches the loop via Post/RunInLoop.
///   - Post / PostAndWait / ScheduleAfter / CancelTimer are thread-safe;
///     an eventfd wakes the loop out of epoll_wait.
///   - Fd callbacks, posted tasks, and timer callbacks all run on the loop
///     thread, so per-connection protocol state needs no locking.
///
/// Timers ride a coarse hashed timing wheel (kTickMs granularity, kWheelSlots
/// slots, rounds counter for delays beyond one revolution) — cheap O(1)
/// insert/fire for the redial backoffs and batch-flush deadlines that
/// dominate, at the cost of kTickMs resolution.
class EventLoop {
 public:
  using Task = std::function<void()>;
  /// Receives the raw epoll event mask (EPOLLIN/EPOLLOUT/EPOLLERR/EPOLLHUP).
  using FdCallback = std::function<void(std::uint32_t)>;
  using TimerId = std::uint64_t;

  static constexpr std::size_t kWheelSlots = 512;
  static constexpr int kTickMs = 5;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread. Idempotent.
  void Start();

  /// Stops and joins the loop thread. Must not be called from the loop
  /// thread. Idempotent. Pending tasks run once more before exit so
  /// PostAndWait barriers cannot deadlock with Stop.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool InLoop() const {
    return running() && std::this_thread::get_id() == loop_tid_;
  }

  /// Enqueues a task for the loop thread; wakes the loop. Safe from any
  /// thread. Tasks enqueued after Stop() completed are dropped.
  void Post(Task task);

  /// Runs inline when already on the loop thread, otherwise Post.
  void RunInLoop(Task task);

  /// Post + block until the task has executed (teardown barrier). Must not
  /// be called from the loop thread. If the loop was never started or has
  /// been stopped, runs the task on the caller's thread.
  void PostAndWait(Task task);

  /// Schedules `task` to run on the loop thread after ~`delay` (quantized
  /// up to the wheel tick). Safe from any thread.
  TimerId ScheduleAfter(std::chrono::milliseconds delay, Task task);

  /// Best-effort cancel; no-op if the timer already fired. Safe from any
  /// thread (the callback never runs concurrently with the canceling
  /// thread if that thread is the loop thread).
  void CancelTimer(TimerId id);

  /// Registers `fd` for `events`; `cb` runs on the loop thread with the
  /// ready mask. Loop-thread-only (or before Start).
  void AddFd(int fd, std::uint32_t events, FdCallback cb);
  void ModFd(int fd, std::uint32_t events);
  /// Deregisters. Safe to call from inside the fd's own callback.
  void RemoveFd(int fd);

  struct Stats {
    std::uint64_t wakeups = 0;      // epoll_wait returns
    std::uint64_t tasks_run = 0;    // posted tasks executed
    std::uint64_t timers_fired = 0;
    std::uint64_t fds_registered = 0;  // currently registered fds
  };
  Stats stats() const;

 private:
  struct Registration {
    FdCallback cb;
    std::uint32_t events = 0;
  };
  struct Timer {
    TimerId id = 0;
    std::uint32_t rounds = 0;
    Task fn;
  };

  void LoopBody();
  void RunTasks();
  /// Moves due timers into `due`; advances the wheel cursor to wall time.
  void CollectDueTimers(std::vector<Task>* due);
  /// epoll_wait timeout: 0 with tasks pending, distance to the next
  /// occupied wheel slot with timers pending, -1 otherwise.
  int NextTimeoutMs();
  void Wakeup();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread::id loop_tid_;

  std::mutex task_mu_;
  std::vector<Task> tasks_;  // guarded by task_mu_

  std::mutex timer_mu_;
  std::array<std::vector<Timer>, kWheelSlots> wheel_;  // guarded by timer_mu_
  std::size_t cursor_ = 0;                             // guarded by timer_mu_
  std::chrono::steady_clock::time_point wheel_now_;    // guarded by timer_mu_
  TimerId next_timer_id_ = 1;                          // guarded by timer_mu_
  std::size_t timer_count_ = 0;                        // guarded by timer_mu_

  // Loop-thread-only; shared_ptr so RemoveFd during a callback's own
  // dispatch cannot destroy the std::function mid-execution.
  std::unordered_map<int, std::shared_ptr<Registration>> fds_;
  // Loop-thread-only: fds deregistered while dispatching the current
  // epoll_wait batch. Their remaining queued events are stale — the fd
  // number may already belong to a fresh registration (close + accept can
  // reuse it within one batch) — and must not be dispatched.
  bool dispatching_ = false;
  std::vector<int> removed_in_dispatch_;

  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> fds_registered_{0};
};

}  // namespace net
}  // namespace lazysi

#endif  // LAZYSI_NET_EVENT_LOOP_H_
