#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstring>

#include "common/logging.h"

namespace oe::net {
namespace {

/// Reads at least `min` and at most `max` bytes into `data`, setting
/// *got to the count read.
Status ReadAtLeast(int fd, void* data, size_t min, size_t max, size_t* got,
                   bool* got_bytes) {
  auto* p = static_cast<uint8_t*>(data);
  size_t done = 0;
  while (done < min) {
    const ssize_t r = ::read(fd, p + done, max - done);
    if (r == 0) return Status::IoError("connection closed");
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::TimedOut("read timed out");
      }
      return Status::IoError(std::string("read: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(r);
    *got = done;
    if (got_bytes != nullptr) *got_bytes = true;
  }
  return Status::OK();
}

Status SendFrame(int fd, uint32_t tag, const uint8_t* payload, size_t n) {
  // Validate before writing a single byte: a payload over the receiver's
  // frame cap would only be rejected after a full (wasted) send, and one
  // at or above 4 GiB - 4 would silently truncate in the 32-bit length.
  if (n > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(n) + " > " +
                                   std::to_string(kMaxFramePayloadBytes));
  }
  const uint32_t len = static_cast<uint32_t>(n) + 4;
  uint8_t header[8];
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &tag, 4);
  // Header and payload leave in one sendmsg; the loop only repeats for a
  // partial write, advancing the iovecs past the bytes already sent.
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<uint8_t*>(payload), n}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = n > 0 ? 2 : 1;
  size_t left = sizeof(header) + n;
  while (true) {
    // MSG_NOSIGNAL: a peer closing mid-write must surface as EPIPE (an
    // IoError Status), not a process-killing SIGPIPE.
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::TimedOut("send timed out");
      }
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    size_t sent = static_cast<size_t>(r);
    left -= sent;
    if (left == 0) return Status::OK();
    while (sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    msg.msg_iov->iov_base = static_cast<uint8_t*>(msg.msg_iov->iov_base) + sent;
    msg.msg_iov->iov_len -= sent;
  }
}

/// Payload bytes ReceiveFrame can take in the same read as the header.
constexpr size_t kInlinePayloadBytes = 4096;

/// `got_bytes` (optional) is set once any response byte arrived — after
/// that the request has definitely been processed, so a caller must not
/// transparently re-send it on another connection. A nonzero `deadline`
/// (wall ns) bounds the wait for the first byte.
Status ReceiveFrame(int fd, uint32_t* tag, Buffer* payload,
                    bool* got_bytes = nullptr, Nanos deadline = 0) {
  if (deadline != 0) {
    const Nanos left = std::max<Nanos>(0, deadline - WallNowNanos());
    pollfd readable{fd, POLLIN, 0};
    const int wait_ms = static_cast<int>(
        std::min<Nanos>((left + 999'999) / 1'000'000, INT_MAX));
    if (::poll(&readable, 1, wait_ms) == 0) {
      return Status::TimedOut("read timed out");
    }
  }
  // One read takes the header and, for a small frame, the whole payload.
  // A connection carries one frame at a time each way (a client sends its
  // next request only after reading the reply), so no read can run into
  // the next frame; bytes beyond this one mean a broken peer.
  uint8_t head[8 + kInlinePayloadBytes];
  size_t got = 0;
  OE_RETURN_IF_ERROR(
      ReadAtLeast(fd, head, 8, sizeof(head), &got, got_bytes));
  uint32_t len = 0;
  std::memcpy(&len, head, 4);
  std::memcpy(tag, head + 4, 4);
  const size_t inline_bytes = got - 8;
  if (len < 4 || len > kMaxFrameBytes || inline_bytes > len - 4) {
    return Status::Corruption("bad frame length");
  }
  payload->resize(len - 4);
  if (inline_bytes > 0) {
    std::memcpy(payload->data(), head + 8, inline_bytes);
  }
  const size_t rest = payload->size() - inline_bytes;
  return ReadAtLeast(fd, payload->data() + inline_bytes, rest, rest, &got,
                     got_bytes);
}

/// The status a reply's status word `code` stands for. The server sends a
/// StatusCode with the message as payload; mapping it back lets callers act
/// on it (kWrongOwner re-routes, kUnavailable retries). Consumes the
/// message from `payload`.
Status RemoteStatus(uint32_t code, Buffer* payload) {
  if (code == 0) return Status::OK();
  const std::string msg(payload->begin(), payload->end());
  payload->clear();
  if (code > static_cast<uint32_t>(kLastStatusCode)) {
    return Status::Corruption("remote error with unknown status code " +
                              std::to_string(code) + ": " + msg);
  }
  return Status::FromCode(static_cast<StatusCode>(code),
                          "remote error: " + msg);
}

}  // namespace

TcpServer::TcpServer(int listen_fd, uint16_t port, RpcHandler handler)
    : listen_fd_(listen_fd), port_(port), handler_(std::move(handler)) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(uint16_t port,
                                                    RpcHandler handler) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::IoError("getsockname failed");
  }
  return std::unique_ptr<TcpServer>(
      new TcpServer(fd, ntohs(addr.sin_port), std::move(handler)));
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::Stop() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    // Unblock connection threads parked in read() on live connections.
    for (const auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    for (auto& [id, thread] : conn_threads_) {
      threads.push_back(std::move(thread));
    }
    conn_threads_.clear();
    for (auto& thread : finished_threads_) threads.push_back(std::move(thread));
    finished_threads_.clear();
  }
  for (auto& t : threads) t.join();
}

size_t TcpServer::ActiveConnections() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  return conn_fds_.size();
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      const uint64_t id = next_conn_id_++;
      conn_fds_.emplace(id, fd);
      conn_threads_.emplace(
          id, std::thread([this, id, fd] { ServeConnection(id, fd); }));
      // Reap threads whose connections have since closed, so a long-lived
      // server does not accumulate one dead thread per past connection.
      finished.swap(finished_threads_);
    }
    for (auto& t : finished) t.join();
  }
}

void TcpServer::ServeConnection(uint64_t id, int fd) {
  Buffer request;
  Buffer response;
  while (!stopping_.load(std::memory_order_acquire)) {
    uint32_t method = 0;
    if (!ReceiveFrame(fd, &method, &request).ok()) break;
    response.clear();
    const Status status = handler_(method, request, &response);
    Status io;
    if (status.ok()) {
      io = SendFrame(fd, 0, response.data(), response.size());
    } else {
      // The status word carries the code; the payload is the message.
      const std::string_view msg = status.message();
      io = SendFrame(fd, static_cast<uint32_t>(status.code()),
                     reinterpret_cast<const uint8_t*>(msg.data()),
                     msg.size());
    }
    if (!io.ok()) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mutex_);
  conn_fds_.erase(id);
  auto it = conn_threads_.find(id);
  if (it != conn_threads_.end()) {
    // Hand the (still finishing) thread to the reaper; Stop() may already
    // have taken ownership, in which case there is nothing to move.
    finished_threads_.push_back(std::move(it->second));
    conn_threads_.erase(it);
  }
}

TcpTransport::~TcpTransport() {
  for (auto& [node, endpoint] : endpoints_) {
    for (int fd : endpoint->idle_fds) ::close(fd);
  }
}

void TcpTransport::AddNode(NodeId node, const std::string& host,
                           uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->host = host;
  endpoint->port = port;
  endpoints_[node] = std::move(endpoint);
}

Result<TcpTransport::Connection> TcpTransport::CheckOut(Endpoint* endpoint,
                                                        bool fresh) {
  if (!fresh) {
    std::lock_guard<std::mutex> lock(endpoint->mutex);
    if (!endpoint->idle_fds.empty()) {
      const int fd = endpoint->idle_fds.back();
      endpoint->idle_fds.pop_back();
      return Connection{fd, /*pooled=*/true};
    }
  }
  OE_ASSIGN_OR_RETURN(const int fd, Dial(*endpoint));
  return Connection{fd, /*pooled=*/false};
}

Result<int> TcpTransport::Dial(const Endpoint& endpoint) {
  // Dial outside the endpoint lock so concurrent callers connect in
  // parallel rather than serializing on the handshake.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + endpoint.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    // ECONNREFUSED means the server is down right now: report Unavailable
    // so the retry policy can wait for it to come back.
    if (errno == ECONNREFUSED) {
      return Status::Unavailable(std::string("connect: ") +
                                 std::strerror(errno));
    }
    return Status::IoError(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Arm per-socket I/O timeouts from the RPC deadline so a hung peer cannot
  // park a worker thread forever; a fired timeout surfaces as kTimedOut.
  const int64_t deadline_ms = rpc_options().deadline_ms;
  if (deadline_ms > 0) {
    timeval tv{};
    tv.tv_sec = deadline_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((deadline_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

void TcpTransport::InvalidatePool(Endpoint* endpoint) {
  std::vector<int> stale;
  {
    std::lock_guard<std::mutex> lock(endpoint->mutex);
    stale.swap(endpoint->idle_fds);
  }
  for (int fd : stale) ::close(fd);
}

void TcpTransport::CheckIn(Endpoint* endpoint, int fd) {
  std::lock_guard<std::mutex> lock(endpoint->mutex);
  if (endpoint->idle_fds.size() < kMaxIdleConnections) {
    endpoint->idle_fds.push_back(fd);
  } else {
    ::close(fd);
  }
}

TcpTransport::Endpoint* TcpTransport::FindEndpoint(NodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = endpoints_.find(node);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

Status TcpTransport::CallOnce(NodeId node, uint32_t method,
                              const Buffer& request, Buffer* response) {
  RpcCall call{node, method, &request, response, Status::OK()};
  Attempt attempt{&call};
  AttemptEach(&attempt, 1);
  return std::move(call.status);
}

Status TcpTransport::ParallelCall(RpcCall* calls, size_t n) {
  return CallWithRetries(calls, n);
}

void TcpTransport::AttemptEach(Attempt* attempts, size_t n) {
  struct Exchange {
    Endpoint* endpoint = nullptr;
    Connection conn;
    Status sent;
    bool active = true;  // takes part in the current round
  };
  std::vector<Exchange> exchanges(n);
  auto finish = [&](size_t i, Status status) {
    exchanges[i].active = false;
    attempts[i].call->status = std::move(status);
    attempts[i].done_ns = WallNowNanos();
  };
  const int64_t deadline_ms = rpc_options().deadline_ms;
  // Round 0 sends every request on a pooled or new connection. Round 1
  // re-sends, on new sockets, the requests whose pooled connection failed
  // before yielding a reply byte: most likely stale (the server restarted
  // since it was pooled), so the request never reached a live peer. Each
  // round sends all its requests, then reads the replies in call order on
  // this thread. TcpServer reads each request in full before it writes that
  // request's reply, so a reply not yet read never stalls a later send.
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < n; ++i) {
      Exchange& x = exchanges[i];
      const RpcCall& call = *attempts[i].call;
      if (!x.active) continue;
      if (round == 0) x.endpoint = FindEndpoint(call.node);
      if (x.endpoint == nullptr) {
        finish(i, Status::NotFound("no such node: " +
                                   std::to_string(call.node)));
        continue;
      }
      Result<Connection> conn = CheckOut(x.endpoint, /*fresh=*/round > 0);
      if (!conn.ok()) {
        finish(i, conn.status());
        continue;
      }
      x.conn = conn.value();
      const Buffer& request = call.payload();
      x.sent =
          SendFrame(x.conn.fd, call.method, request.data(), request.size());
      if (x.sent.code() == StatusCode::kInvalidArgument) {
        // Length validation failed before any bytes hit the wire; the
        // connection is still clean.
        CheckIn(x.endpoint, x.conn.fd);
        finish(i, std::move(x.sent));
      }
    }
    // With a deadline, every read of the round shares one bound, so hung
    // peers time out together rather than one socket timeout after another.
    const Nanos deadline =
        deadline_ms > 0 ? WallNowNanos() + deadline_ms * 1'000'000 : 0;
    bool resend = false;
    for (size_t i = 0; i < n; ++i) {
      Exchange& x = exchanges[i];
      RpcCall& call = *attempts[i].call;
      if (!x.active) continue;
      Status status = std::move(x.sent);
      uint32_t code = 0;
      bool got_bytes = false;
      if (status.ok()) {
        status = ReceiveFrame(x.conn.fd, &code, call.response, &got_bytes,
                              deadline);
      }
      if (status.ok()) {
        CheckIn(x.endpoint, x.conn.fd);
        stats_.Record(call.payload().size(), call.response->size());
        finish(i, RemoteStatus(code, call.response));
        continue;
      }
      ::close(x.conn.fd);
      if (round == 0 && x.conn.pooled && !got_bytes) {
        // Every idle connection to that endpoint is from the dead server
        // too. Failures after reply bytes arrived, or on a new connection,
        // go to the caller's retry policy.
        InvalidatePool(x.endpoint);
        call.response->clear();
        resend = true;
        continue;
      }
      finish(i, std::move(status));
    }
    if (!resend) break;
  }
}

}  // namespace oe::net
