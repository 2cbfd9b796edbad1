#include "runtime/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <random>
#include <thread>

#include "common/failpoint.h"
#include "runtime/command.h"

namespace gqd {

namespace {

// Client-side transport faults, for exercising the retry path without a
// flaky network: a fired site fails the operation exactly as a broken
// socket would, and CallWithRetry must recover.
GQD_FAILPOINT_DEFINE(fp_client_connect, "client.connect");
GQD_FAILPOINT_DEFINE(fp_client_read, "client.read");
GQD_FAILPOINT_DEFINE(fp_client_write, "client.write");

}  // namespace

LineClient::~LineClient() { Close(); }

Status LineClient::Connect(std::uint16_t port) {
  Close();
  port_ = port;
  if (GQD_FAILPOINT_FIRED(fp_client_connect)) {
    return Status::IOError(
        "injected connect failure (failpoint client.connect)");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status =
        Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

Result<std::string> LineClient::Call(const std::string& line) {
  if (fd_ < 0) {
    return Status::IOError("not connected");
  }
  if (GQD_FAILPOINT_FIRED(fp_client_write)) {
    // A write fault leaves the stream in an unknown state; drop the
    // connection so a retry starts from a clean one.
    Close();
    return Status::IOError("injected write failure (failpoint client.write)");
  }
  std::string framed = line;
  framed += '\n';
  std::size_t written = 0;
  while (written < framed.size()) {
    // MSG_NOSIGNAL: a worker killed mid-conversation must surface as an
    // IOError the caller can fail over from, not a process-wide SIGPIPE.
    ssize_t w = ::send(fd_, framed.data() + written,
                       framed.size() - written, MSG_NOSIGNAL);
    if (w <= 0) {
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(w);
  }
  char chunk[4096];
  while (true) {
    std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return response;
    }
    if (GQD_FAILPOINT_FIRED(fp_client_read)) {
      Close();
      return Status::IOError("injected read failure (failpoint client.read)");
    }
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      return Status::IOError("connection closed before a response arrived");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Result<std::string> LineClient::CallWithRetry(const std::string& line,
                                              const RetryPolicy& policy) {
  std::mt19937_64 rng(policy.jitter_seed);
  int attempts = std::max(policy.max_attempts, 1);
  Result<std::string> last(Status::IOError("no attempts made"));
  for (int attempt = 0; attempt < attempts; attempt++) {
    if (attempt > 0) {
      retries_++;
    }
    if (!connected()) {
      Status status = Connect(port_);
      last = status.ok() ? Call(line) : Result<std::string>(status);
    } else {
      last = Call(line);
    }
    std::int64_t retry_after_ms = -1;
    if (last.ok()) {
      ResponseError error = ReadResponseError(last.value());
      if (error.code != "Unavailable") {
        return last;  // success, or a non-retryable protocol error
      }
      retry_after_ms = error.retry_after_ms;  // a load shed
    }
    if (!last.ok()) {
      // Transport failure: the stream state is unknown, reconnect fresh.
      Close();
    }
    if (attempt + 1 == attempts) {
      break;
    }
    std::chrono::milliseconds backoff{};
    if (retry_after_ms >= 0) {
      // The server told us when it expects capacity; honour that schedule
      // (it may be shorter than the exponential one — an overloaded server
      // draining a burst wants the retry soon, not in 2^i * initial).
      // Keep up to 50% jitter so a shed burst does not retry in lockstep.
      backoff = std::chrono::milliseconds(retry_after_ms);
    } else {
      backoff = policy.initial_backoff * (std::int64_t{1} << attempt);
      backoff =
          std::min<std::chrono::milliseconds>(backoff, policy.max_backoff);
    }
    if (backoff.count() > 0) {
      backoff += std::chrono::milliseconds(static_cast<std::int64_t>(
          rng() % static_cast<std::uint64_t>(backoff.count() / 2 + 1)));
    }
    if (backoff.count() > 0) {
      std::this_thread::sleep_for(backoff);
    }
  }
  if (last.ok()) {
    // Every attempt was shed; surface that as a structured status rather
    // than handing the caller a response they would retry themselves.
    return Status::Unavailable("server overloaded after " +
                               std::to_string(attempts) + " attempts");
  }
  return last;
}

void LineClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

}  // namespace gqd
