#pragma once

// Buffered non-blocking connection on an EventLoop. A Conn owns its fd,
// accumulates incoming bytes into rx() and holds outgoing bytes in one
// transmit buffer: send() writes at once, while queue() only appends so
// that several messages can leave in one flush(). Writable interest is
// armed only while the socket has refused part of the buffer. Lifetime is
// shared_ptr-based: the loop callback keeps the Conn alive until it is
// closed, so a callback that closes its own connection is safe.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mvreju/net/event_loop.hpp"

namespace mvreju::net {

class Conn : public std::enable_shared_from_this<Conn> {
public:
    /// New bytes were appended to rx(); consume what you can.
    using DataFn = std::function<void(Conn&)>;
    /// The peer closed or an I/O error occurred; the fd is already closed.
    /// Invoked at most once, never re-entered from inside close().
    using CloseFn = std::function<void(Conn&)>;

    /// Wrap an already-open fd (made non-blocking here) and register it.
    [[nodiscard]] static std::shared_ptr<Conn> adopt(EventLoop& loop, int fd,
                                                     DataFn on_data,
                                                     CloseFn on_close = nullptr);
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    /// Incoming byte buffer; the consumer erases what it has processed.
    [[nodiscard]] std::string& rx() noexcept { return rx_; }

    /// Append bytes to the transmit buffer without writing them. They leave
    /// at the next flush(), or on writable readiness while a backlog exists.
    void queue(const void* data, std::size_t n);
    void queue(const std::string& data) { queue(data.data(), data.size()); }
    /// Write as much of the transmit buffer as the socket accepts now and
    /// arm writable interest for the rest. Returns the socket writes made.
    std::size_t flush();
    /// queue() then flush().
    void send(const void* data, std::size_t n);
    void send(const std::string& data) { send(data.data(), data.size()); }

    /// Close after the transmit queue drains (immediately when empty). No
    /// further on_data callbacks fire; on_close fires when the fd closes.
    void close_after_send();
    /// Close now, discarding any queued bytes.
    void close();

    [[nodiscard]] bool closed() const noexcept { return fd_ < 0; }
    [[nodiscard]] int fd() const noexcept { return fd_; }
    [[nodiscard]] std::size_t tx_pending() const noexcept { return tx_.size() - tx_offset_; }

    /// Application tag (e.g. the owning session id); the loop never reads it.
    std::uint64_t tag = 0;

private:
    Conn(EventLoop& loop, int fd, DataFn on_data, CloseFn on_close);
    void on_ready(std::uint32_t ready);
    void update_interest();

    EventLoop& loop_;
    int fd_;
    DataFn on_data_;
    CloseFn on_close_;
    std::string rx_;
    std::string tx_;
    std::size_t tx_offset_ = 0;  ///< bytes of tx_ already written
    bool draining_ = false;      ///< close_after_send() requested
    bool want_write_ = false;
};

}  // namespace mvreju::net
