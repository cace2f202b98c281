#pragma once

// Non-blocking socket event loop extracted from the obs exporter's private
// poll() machinery so every network-facing subsystem (the telemetry
// exporter, the multi-stream serving layer) shares one readiness engine.
//
// Design rules:
//  - Single-owner: one thread constructs the loop and drives poll_once() /
//    run(); callbacks execute on that thread. The only cross-thread entry
//    point is stop(), which is async-signal-ish safe (an atomic flag plus a
//    self-pipe write) so another thread can wake a parked loop.
//  - Readiness comes from epoll (the project builds on Linux only). If
//    epoll_create1 fails, add() and poll_once() fail; nothing falls back
//    to another readiness call.
//  - Callbacks may add or remove fds freely, including removing themselves;
//    dispatch re-validates registration before every invocation.
//
// The loop never owns file descriptors: callers close what they opened
// (Listener and Conn wrap that ownership).

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace mvreju::net {

/// Readiness interest / result bits.
inline constexpr std::uint32_t kReadable = 1u << 0;
inline constexpr std::uint32_t kWritable = 1u << 1;
/// Error/hangup, always reported even when not requested.
inline constexpr std::uint32_t kError = 1u << 2;

class EventLoop {
public:
    /// Invoked with the ready bitmask for the registered fd.
    using IoCallback = std::function<void(std::uint32_t ready)>;

    EventLoop();
    ~EventLoop();
    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /// Register `fd` for the `interest` bits. Returns false when the fd is
    /// already registered or epoll rejects it (also when the loop has no
    /// epoll instance).
    bool add(int fd, std::uint32_t interest, IoCallback callback);
    /// Change the interest set of a registered fd.
    bool modify(int fd, std::uint32_t interest);
    /// Unregister; safe to call from inside the fd's own callback.
    void remove(int fd);
    [[nodiscard]] bool watching(int fd) const { return entries_.contains(fd); }
    [[nodiscard]] std::size_t watched() const noexcept { return entries_.size(); }

    /// Wait up to `timeout_ms` (-1 = indefinitely) and dispatch callbacks
    /// for every ready fd. Returns the number of fds epoll reported ready
    /// (an fd whose callback was skipped because an earlier callback removed
    /// or replaced it still counts), 0 on timeout, -1 on an epoll error other
    /// than EINTR (also when the loop has no epoll instance).
    int poll_once(int timeout_ms);

    /// poll_once(tick_ms) until stop() is observed.
    void run(int tick_ms = 200);

    /// Request run() to return. Callable from any thread; wakes a parked
    /// loop immediately via the self-pipe.
    void stop();
    /// Clear a previous stop() so the loop can be reused.
    void reset_stop() { stop_requested_.store(false, std::memory_order_relaxed); }
    [[nodiscard]] bool stop_requested() const noexcept {
        return stop_requested_.load(std::memory_order_relaxed);
    }

private:
    struct Entry {
        IoCallback callback;
        std::uint64_t generation = 0;  ///< guards against fd-number reuse
    };

    /// One ready fd with the generation of the entry that was registered
    /// when readiness was captured, so dispatch can detect fd-number reuse.
    struct ReadyEvent {
        int fd = -1;
        std::uint32_t bits = 0;
        std::uint64_t generation = 0;
    };

    void dispatch(const std::vector<ReadyEvent>& ready);

    std::unordered_map<int, Entry> entries_;
    std::uint64_t generation_ = 0;
    int epoll_fd_ = -1;           ///< -1 when epoll_create1 failed
    int wake_pipe_[2] = {-1, -1}; ///< self-pipe: stop() writes, loop drains
    std::atomic<bool> stop_requested_{false};
};

}  // namespace mvreju::net
