#include "mvreju/net/event_loop.hpp"

#include <cerrno>
#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

namespace mvreju::net {

namespace {

/// epoll_ctl ADD or MOD for `fd` with our interest bits as epoll's.
bool epoll_set(int epoll_fd, int op, int fd, std::uint32_t interest) {
    epoll_event ev{};
    if (interest & kReadable) ev.events |= EPOLLIN;
    if (interest & kWritable) ev.events |= EPOLLOUT;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

std::uint32_t from_epoll(std::uint32_t ev) {
    std::uint32_t ready = 0;
    if (ev & (EPOLLIN | EPOLLPRI)) ready |= kReadable;
    if (ev & EPOLLOUT) ready |= kWritable;
    // Error/hangup: surface as error *and* readable so byte-stream consumers
    // observe EOF through their normal read path.
    if (ev & (EPOLLERR | EPOLLHUP)) ready |= kError | kReadable;
    return ready;
}

}  // namespace

EventLoop::EventLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (::pipe(wake_pipe_) == 0) {
        // Self-pipe: stop() writes a token, the loop drains. Both ends are
        // non-blocking so neither a stop() burst nor the drain can park.
        for (int fd : wake_pipe_)
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        add(wake_pipe_[0], kReadable, [this](std::uint32_t) {
            char sink[64];
            while (::read(wake_pipe_[0], sink, sizeof sink) > 0) {
            }
        });
    }
}

EventLoop::~EventLoop() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    for (int fd : wake_pipe_)
        if (fd >= 0) ::close(fd);
}

bool EventLoop::add(int fd, std::uint32_t interest, IoCallback callback) {
    if (fd < 0 || !callback || entries_.contains(fd)) return false;
    if (!epoll_set(epoll_fd_, EPOLL_CTL_ADD, fd, interest)) return false;
    entries_.emplace(fd, Entry{std::move(callback), ++generation_});
    return true;
}

bool EventLoop::modify(int fd, std::uint32_t interest) {
    return entries_.contains(fd) && epoll_set(epoll_fd_, EPOLL_CTL_MOD, fd, interest);
}

void EventLoop::remove(int fd) {
    auto it = entries_.find(fd);
    if (it == entries_.end()) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    entries_.erase(it);
}

void EventLoop::dispatch(const std::vector<ReadyEvent>& ready) {
    for (const ReadyEvent& event : ready) {
        // A previous callback may have removed this fd — or closed it and a
        // later callback reused the number (accept handing out the same fd).
        // The generation stamped when readiness was captured detects both:
        // invoke only the entry that was registered when epoll reported the
        // fd ready, never a newer registration.
        auto it = entries_.find(event.fd);
        if (it == entries_.end() || it->second.generation != event.generation)
            continue;
        // Copy the callback: it may remove itself (erasing the entry) while
        // running.
        IoCallback callback = it->second.callback;
        callback(event.bits);
    }
}

int EventLoop::poll_once(int timeout_ms) {
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) return errno == EINTR ? 0 : -1;
    std::vector<ReadyEvent> ready;
    ready.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;  // copy out of the packed union
        const auto it = entries_.find(fd);
        if (it == entries_.end()) continue;  // unregistered straggler
        ready.push_back(ReadyEvent{fd, from_epoll(events[i].events), it->second.generation});
    }
    dispatch(ready);
    return n;
}

void EventLoop::run(int tick_ms) {
    while (!stop_requested()) {
        if (poll_once(tick_ms) < 0) break;
    }
}

void EventLoop::stop() {
    stop_requested_.store(true, std::memory_order_relaxed);
    if (wake_pipe_[1] >= 0) {
        const char token = 's';
        [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &token, 1);
    }
}

}  // namespace mvreju::net
