#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <future>
#include <utility>

namespace lazysi {
namespace net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  assert(epoll_fd_ >= 0 && wake_fd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  wheel_now_ = std::chrono::steady_clock::now();
}

EventLoop::~EventLoop() {
  Stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] { LoopBody(); });
  // Callers may Post immediately after Start; running_ flips inside
  // LoopBody before the first epoll_wait, and Post's eventfd write is
  // valid regardless, so no handshake is needed here.
}

void EventLoop::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  assert(!InLoop() && "EventLoop::Stop must be called off-loop");
  stop_.store(true, std::memory_order_release);
  Wakeup();
  if (thread_.joinable()) thread_.join();
}

void EventLoop::Post(Task task) {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.push_back(std::move(task));
  }
  Wakeup();
}

void EventLoop::RunInLoop(Task task) {
  if (InLoop()) {
    task();
  } else {
    Post(std::move(task));
  }
}

void EventLoop::PostAndWait(Task task) {
  assert(!InLoop() && "PostAndWait from the loop thread would deadlock");
  // Not !running(): a started loop whose thread has not been scheduled yet
  // still runs every posted task, and running the barrier inline then
  // would return before the tasks queued ahead of it.
  if (!started_.load(std::memory_order_acquire) ||
      stop_.load(std::memory_order_acquire)) {
    task();
    return;
  }
  std::promise<void> done;
  auto fut = done.get_future();
  Post([&task, &done] {
    task();
    done.set_value();
  });
  fut.wait();
}

EventLoop::TimerId EventLoop::ScheduleAfter(std::chrono::milliseconds delay,
                                            Task task) {
  std::uint64_t ticks;
  TimerId id;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    // The wheel cursor lags wall time by however long the loop has been
    // parked in epoll_wait; schedule relative to wall time so the lag is
    // not subtracted from the delay.
    const auto now = std::chrono::steady_clock::now();
    auto effective = delay;
    if (now > wheel_now_) {
      effective += std::chrono::duration_cast<std::chrono::milliseconds>(
          now - wheel_now_);
    }
    ticks = static_cast<std::uint64_t>(effective.count() + kTickMs - 1) /
            static_cast<std::uint64_t>(kTickMs);
    if (ticks == 0) ticks = 1;
    id = next_timer_id_++;
    Timer t;
    t.id = id;
    t.rounds = static_cast<std::uint32_t>((ticks - 1) / kWheelSlots);
    t.fn = std::move(task);
    wheel_[(cursor_ + ticks) % kWheelSlots].push_back(std::move(t));
    ++timer_count_;
  }
  Wakeup();  // the loop may be sleeping with a longer (or no) timeout
  return id;
}

void EventLoop::CancelTimer(TimerId id) {
  std::lock_guard<std::mutex> lock(timer_mu_);
  for (auto& slot : wheel_) {
    for (auto it = slot.begin(); it != slot.end(); ++it) {
      if (it->id == id) {
        slot.erase(it);
        --timer_count_;
        return;
      }
    }
  }
}

void EventLoop::AddFd(int fd, std::uint32_t events, FdCallback cb) {
  assert(InLoop() || !running());
  auto reg = std::make_shared<Registration>();
  reg->cb = std::move(cb);
  reg->events = events;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  fds_[fd] = std::move(reg);
  fds_registered_.store(fds_.size(), std::memory_order_relaxed);
}

void EventLoop::ModFd(int fd, std::uint32_t events) {
  assert(InLoop() || !running());
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  it->second->events = events;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::RemoveFd(int fd) {
  assert(InLoop() || !running());
  if (fds_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fds_registered_.store(fds_.size(), std::memory_order_relaxed);
  if (dispatching_) removed_in_dispatch_.push_back(fd);
}

EventLoop::Stats EventLoop::stats() const {
  Stats s;
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  s.fds_registered = fds_registered_.load(std::memory_order_relaxed);
  return s;
}

void EventLoop::Wakeup() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::RunTasks() {
  std::vector<Task> batch;
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    batch.swap(tasks_);
  }
  for (auto& task : batch) {
    task();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventLoop::CollectDueTimers(std::vector<Task>* due) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(timer_mu_);
  const auto tick = std::chrono::milliseconds(kTickMs);
  while (timer_count_ > 0 && wheel_now_ + tick <= now) {
    wheel_now_ += tick;
    cursor_ = (cursor_ + 1) % kWheelSlots;
    auto& slot = wheel_[cursor_];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->rounds > 0) {
        --it->rounds;
        ++it;
      } else {
        due->push_back(std::move(it->fn));
        it = slot.erase(it);
        --timer_count_;
      }
    }
  }
  // With no timers pending, snap the cursor's epoch to now so the next
  // ScheduleAfter doesn't see (and compensate for) a huge stale lag.
  if (timer_count_ == 0) wheel_now_ = now;
}

int EventLoop::NextTimeoutMs() {
  std::lock_guard<std::mutex> lock(task_mu_);
  if (!tasks_.empty()) return 0;
  std::lock_guard<std::mutex> tlock(timer_mu_);
  if (timer_count_ == 0) return -1;
  for (std::size_t i = 1; i <= kWheelSlots; ++i) {
    if (!wheel_[(cursor_ + i) % kWheelSlots].empty()) {
      return static_cast<int>(i) * kTickMs;
    }
  }
  return static_cast<int>(kWheelSlots) * kTickMs;
}

void EventLoop::LoopBody() {
  loop_tid_ = std::this_thread::get_id();
  running_.store(true, std::memory_order_release);
  epoll_event events[64];
  std::vector<Task> due;
  while (!stop_.load(std::memory_order_acquire)) {
    RunTasks();
    due.clear();
    CollectDueTimers(&due);
    for (auto& t : due) {
      t();
      timers_fired_.fetch_add(1, std::memory_order_relaxed);
    }
    if (stop_.load(std::memory_order_acquire)) break;
    const int n = ::epoll_wait(epoll_fd_, events, 64, NextTimeoutMs());
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself broken; nothing sane left to do
    }
    dispatching_ = true;
    removed_in_dispatch_.clear();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // An fd removed earlier in this batch stays skipped even if a new
      // registration reused the number: the queued event belongs to the
      // dead one, and the live one's events arrive with the next wait.
      if (std::find(removed_in_dispatch_.begin(), removed_in_dispatch_.end(),
                    fd) != removed_in_dispatch_.end()) {
        continue;
      }
      auto it = fds_.find(fd);
      if (it == fds_.end()) continue;  // removed earlier in this batch
      auto reg = it->second;           // keep the callback alive across
      reg->cb(events[i].events);       // a self-RemoveFd
    }
    dispatching_ = false;
  }
  // Final drain so PostAndWait callers blocked during shutdown complete.
  RunTasks();
  running_.store(false, std::memory_order_release);
}

}  // namespace net
}  // namespace lazysi
