#include "net/event_loop.h"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

namespace lazysi {
namespace net {
namespace {

TEST(EventLoopTest, PostAndWaitRightAfterStartRunsOnLoopThread) {
  // Start must not return before the loop thread has published that it
  // runs: a PostAndWait called first would see a stopped loop, run its task
  // inline on the caller, and touch loop-only state off-loop.
  for (int i = 0; i < 200; ++i) {
    EventLoop loop;
    loop.Start();
    std::thread::id ran_on;
    bool in_loop = false;
    loop.PostAndWait([&] {
      ran_on = std::this_thread::get_id();
      in_loop = loop.InLoop();
    });
    ASSERT_NE(ran_on, std::this_thread::get_id()) << "iteration " << i;
    ASSERT_TRUE(in_loop) << "iteration " << i;
    loop.Stop();
  }
}

TEST(EventLoopTest, StaleEventSkippedWhenFdNumberReusedMidBatch) {
  // Two fds become readable inside one epoll_wait batch. The first fd's
  // callback removes + closes the second and immediately registers a fresh
  // fd that reuses the freed number (lowest-free-descriptor rule) — the
  // close + accept pattern of a connection churning under load. The second
  // fd's already-queued event belongs to the dead registration and must
  // not be dispatched to the new one, which could e.g. close a healthy,
  // freshly-accepted connection on a stale EPOLLHUP.
  EventLoop loop;
  loop.Start();

  int a[2], b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, b), 0);

  std::atomic<int> stale_hits{0};
  std::atomic<bool> reused{false};
  std::vector<int> extra_fds;  // dups burned while hunting b[0]'s number
  int new_fd = -1;

  loop.PostAndWait([&] {
    loop.AddFd(a[0], EPOLLIN, [&](std::uint32_t) {
      char c;
      (void)!::read(a[0], &c, 1);
      loop.RemoveFd(b[0]);
      ::close(b[0]);
      // Reacquire b[0]'s number: dup returns the lowest free descriptor,
      // so burn any lower free slots until we land on it.
      for (;;) {
        const int fd = ::dup(a[0]);
        ASSERT_GE(fd, 0);
        if (fd == b[0]) {
          new_fd = fd;
          break;
        }
        if (fd > b[0]) {
          ::close(fd);
          break;
        }
        extra_fds.push_back(fd);
      }
      if (new_fd >= 0) {
        reused.store(true);
        // No data is pending on this fresh registration, so any callback
        // invocation in the current batch can only be b[0]'s stale event.
        loop.AddFd(new_fd, EPOLLIN,
                   [&](std::uint32_t) { stale_hits.fetch_add(1); });
      }
    });
    loop.AddFd(b[0], EPOLLIN, [&](std::uint32_t) {
      char c;
      (void)!::read(b[0], &c, 1);
    });
  });

  // Park the loop so both fds turn readable before one epoll_wait sees
  // them — a[0] first, so its callback runs ahead of b[0]'s queued event.
  std::promise<void> parked;
  std::promise<void> release;
  auto released = release.get_future().share();
  loop.Post([&parked, released] {
    parked.set_value();
    released.wait();
  });
  parked.get_future().wait();
  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "y", 1), 1);
  release.set_value();

  loop.PostAndWait([] {});  // barrier: the batch above fully dispatched
  ASSERT_TRUE(reused.load()) << "fd number was not reused; scenario vacuous";
  EXPECT_EQ(stale_hits.load(), 0)
      << "stale event for a removed fd reached the reused registration";

  loop.PostAndWait([&] {
    loop.RemoveFd(a[0]);
    if (new_fd >= 0) loop.RemoveFd(new_fd);
  });
  loop.Stop();
  for (int fd : extra_fds) ::close(fd);
  if (new_fd >= 0) ::close(new_fd);
  ::close(a[0]);
  ::close(a[1]);
  ::close(b[1]);
}

TEST(EventLoopTest, RemovedFdEventsStillDispatchToSurvivors) {
  // Sanity companion to the stale-skip: removing one fd mid-batch must not
  // suppress the other ready fds' callbacks.
  EventLoop loop;
  loop.Start();

  int a[2], b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, b), 0);

  std::atomic<int> b_hits{0};
  loop.PostAndWait([&] {
    loop.AddFd(a[0], EPOLLIN, [&](std::uint32_t) {
      char c;
      (void)!::read(a[0], &c, 1);
      loop.RemoveFd(a[0]);
    });
    loop.AddFd(b[0], EPOLLIN, [&](std::uint32_t) {
      char c;
      (void)!::read(b[0], &c, 1);
      b_hits.fetch_add(1);
    });
  });

  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "y", 1), 1);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (b_hits.load() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  loop.PostAndWait([&] { loop.RemoveFd(b[0]); });
  loop.Stop();
  ::close(a[0]);
  ::close(a[1]);
  ::close(b[0]);
  ::close(b[1]);
}

}  // namespace
}  // namespace net
}  // namespace lazysi
