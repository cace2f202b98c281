#include "mvreju/net/conn.hpp"

#include <cerrno>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mvreju::net {

namespace {
constexpr std::size_t kReadChunk = 16 * 1024;
}

std::shared_ptr<Conn> Conn::adopt(EventLoop& loop, int fd, DataFn on_data,
                                  CloseFn on_close) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    auto conn = std::shared_ptr<Conn>(
        new Conn(loop, fd, std::move(on_data), std::move(on_close)));
    // The loop's callback co-owns the Conn: it stays alive while registered,
    // even if the application drops its handle.
    if (!loop.add(fd, kReadable, [conn](std::uint32_t ready) { conn->on_ready(ready); })) {
        ::close(fd);
        conn->fd_ = -1;
        return nullptr;
    }
    return conn;
}

Conn::Conn(EventLoop& loop, int fd, DataFn on_data, CloseFn on_close)
    : loop_(loop), fd_(fd), on_data_(std::move(on_data)), on_close_(std::move(on_close)) {}

Conn::~Conn() {
    if (fd_ >= 0) {
        loop_.remove(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

void Conn::close() {
    if (fd_ < 0) return;
    loop_.remove(fd_);
    ::close(fd_);
    fd_ = -1;
    tx_.clear();
    tx_offset_ = 0;
    if (on_close_) {
        // Steal the callback first so a close() from inside on_close_ (or a
        // second close()) cannot re-enter it.
        CloseFn cb = std::move(on_close_);
        on_close_ = nullptr;
        cb(*this);
    }
}

void Conn::close_after_send() {
    if (fd_ < 0) return;
    if (tx_pending() == 0) {
        close();
        return;
    }
    draining_ = true;
    // Stop reading: the conversation is over, only the backlog matters.
    loop_.modify(fd_, kWritable);
    want_write_ = true;
}

void Conn::queue(const void* data, std::size_t n) {
    if (fd_ < 0 || n == 0) return;
    tx_.append(static_cast<const char*>(data), n);
}

void Conn::send(const void* data, std::size_t n) {
    queue(data, n);
    flush();
}

std::size_t Conn::flush() {
    if (fd_ < 0) return 0;
    std::size_t writes = 0;
    while (tx_offset_ < tx_.size()) {
        // MSG_NOSIGNAL: a peer hanging up mid-send must yield EPIPE here,
        // not SIGPIPE for the whole process.
        const ssize_t n = ::send(fd_, tx_.data() + tx_offset_, tx_.size() - tx_offset_,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            tx_offset_ += static_cast<std::size_t>(n);
            ++writes;
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // A signal (e.g. the sampling profiler's SIGPROF) may interrupt a
        // blocked send even with SA_RESTART; retrying is the only correct
        // reaction — closing would drop the connection under profiling load.
        if (n < 0 && errno == EINTR) continue;
        close();  // peer gone or hard error
        return writes;
    }
    if (tx_offset_ >= tx_.size()) {
        tx_.clear();
        tx_offset_ = 0;
        if (draining_) {
            close();
            return writes;
        }
    }
    update_interest();
    return writes;
}

void Conn::update_interest() {
    if (fd_ < 0) return;
    const bool need_write = tx_pending() > 0;
    if (need_write == want_write_) return;
    want_write_ = need_write;
    loop_.modify(fd_, (draining_ ? 0u : kReadable) | (need_write ? kWritable : 0u));
}

void Conn::on_ready(std::uint32_t ready) {
    // Keep *this alive across application callbacks even if they drop every
    // other reference (e.g. a server erasing the session map entry).
    const std::shared_ptr<Conn> guard = shared_from_this();

    if (ready & kWritable) {
        flush();
        if (fd_ < 0) return;
    }
    if ((ready & kReadable) && !draining_) {
        bool peer_closed = false;
        for (;;) {
            char buf[kReadChunk];
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n > 0) {
                rx_.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                peer_closed = true;
                break;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;  // signal-interrupted: retry, not hangup
            peer_closed = true;  // hard error: treat as hangup
            break;
        }
        if (!rx_.empty() && on_data_) {
            on_data_(*this);
            if (fd_ < 0) return;
        }
        if (peer_closed) {
            close();
            return;
        }
    } else if ((ready & kError) && !(ready & kReadable)) {
        close();
        return;
    }
    if (fd_ >= 0 && (ready & kError) && draining_) close();
}

}  // namespace mvreju::net
