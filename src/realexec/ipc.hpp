// Framed-message I/O over file descriptors (control socketpair + data
// pipes) for the real-execution substrate.
//
// Workers write blocking, full frames. The controller reads
// non-blocking through a FrameReader that accumulates bytes and yields
// only complete frames — a worker SIGKILLed mid-write leaves a torn
// trailing fragment that the reader surfaces exactly once at EOF.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "realexec/protocol.hpp"

namespace canary::realexec {

/// write(2) until all of `size` is written. False on error (EPIPE when
/// the peer died). Retries EINTR.
bool write_full(int fd, const void* data, std::size_t size);

/// Blocking read of exactly `size` bytes. False on EOF/error.
bool read_full(int fd, void* data, std::size_t size);

/// Write header + payload as one frame (blocking).
bool write_frame(int fd, FrameType type, const std::string& payload);

/// write_full over a non-blocking fd: parks in poll(POLLOUT) on EAGAIN
/// instead of failing. For small control-plane writes from the
/// controller, whose read side of the same fd must stay non-blocking.
bool write_full_poll(int fd, const void* data, std::size_t size);

/// Frame variant of write_full_poll.
bool write_frame_poll(int fd, FrameType type, const std::string& payload);

/// Blocking read of one frame; false on EOF/error/bad magic.
bool read_frame(int fd, FrameType* type, std::string* payload);

struct Frame {
  FrameType type;
  std::string payload;
};

/// Incremental parser over a non-blocking fd. pump() appends whatever
/// the fd has; next() yields complete frames. After EOF, a non-empty
/// remainder that never completed is the torn-frame signal.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Drain the fd (non-blocking). Returns false once EOF or a fatal
  /// error is hit (reader stays usable for buffered frames).
  bool pump();
  /// Next complete frame, if any is buffered.
  std::optional<Frame> next();

  bool eof() const { return eof_; }
  /// True when the stream ended mid-frame: bytes of an incomplete
  /// header/payload remain. Valid only after eof().
  bool torn() const { return eof_ && !buffer_.empty(); }
  int fd() const { return fd_; }

 private:
  int fd_;
  bool eof_ = false;
  std::string buffer_;
};

/// Make a descriptor (non-)blocking; aborts on fcntl failure.
void set_nonblocking(int fd, bool nonblocking);

/// Close if >= 0 (idempotent helper for teardown paths).
void close_quiet(int fd);

}  // namespace canary::realexec
