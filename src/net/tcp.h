#ifndef OE_NET_TCP_H_
#define OE_NET_TCP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/transport.h"

namespace oe::net {

/// Hard cap on one frame (length word included); the receiver rejects
/// anything larger, so the sender validates against it before writing.
inline constexpr size_t kMaxFrameBytes = 256u << 20;
/// Largest request/response payload one RPC frame can carry.
inline constexpr size_t kMaxFramePayloadBytes = kMaxFrameBytes - 4;

/// Blocking TCP RPC server for one PS node. Wire format (little endian):
///   request:  [ len : u32 ][ method : u32 ][ payload : len-4 bytes ]
///   response: [ len : u32 ][ status : u32 ][ payload : len-4 bytes ]
/// A non-zero status is the handler's StatusCode, with its message as the
/// payload.
class TcpServer {
 public:
  /// Binds to 127.0.0.1:`port` (0 = ephemeral; see port()) and serves
  /// `handler` until Stop() or destruction. One thread per connection;
  /// threads of closed connections are reaped as new connections arrive
  /// rather than accumulating for the server's lifetime.
  static Result<std::unique_ptr<TcpServer>> Start(uint16_t port,
                                                  RpcHandler handler);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  uint16_t port() const { return port_; }
  void Stop();

  /// Connections currently being served (for tests/introspection).
  size_t ActiveConnections() const;

 private:
  TcpServer(int listen_fd, uint16_t port, RpcHandler handler);

  void AcceptLoop();
  void ServeConnection(uint64_t id, int fd);

  int listen_fd_;
  uint16_t port_;
  RpcHandler handler_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  mutable std::mutex conn_mutex_;
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, int> conn_fds_;  // open, for shutdown on Stop
  std::unordered_map<uint64_t, std::thread> conn_threads_;
  std::vector<std::thread> finished_threads_;  // exited, awaiting join
};

/// TCP transport: maps node ids to host:port endpoints. Each endpoint keeps
/// a small pool of cached connections, so concurrent calls to the same node
/// (the ParallelCall fan-out, or several workers sharing one transport) run
/// on distinct sockets instead of serializing behind a single connection.
/// ParallelCall needs no threads: it checks out one connection per call,
/// sends every request, then reads the replies in call order on the calling
/// thread; Call and CallOnce are the same code with one call. A server-side
/// error keeps its StatusCode across the wire.
/// A pooled connection that turns out to be stale (the server restarted
/// since it was pooled) is detected on first use — the whole idle pool for
/// that endpoint is invalidated and the request re-sent once on a freshly
/// dialed socket, so a server restart between calls is invisible to
/// callers. Connection refusal maps to kUnavailable and, when an
/// RpcOptions deadline is set, per-socket send/receive timeouts map hung
/// peers to kTimedOut — both retryable by the Transport::Call policy.
class TcpTransport final : public Transport {
 public:
  ~TcpTransport() override;

  /// Associates `node` with a server endpoint.
  void AddNode(NodeId node, const std::string& host, uint16_t port);

  Status CallOnce(NodeId node, uint32_t method, const Buffer& request,
                  Buffer* response) override;

  using Transport::ParallelCall;
  Status ParallelCall(RpcCall* calls, size_t n) override;

 private:
  struct Endpoint {
    std::string host;
    uint16_t port = 0;
    std::mutex mutex;           // guards idle_fds
    std::vector<int> idle_fds;  // pooled connections, most recent last
  };

  /// A checked-out socket; `pooled` records whether it was reused (and may
  /// therefore be stale) or freshly dialed.
  struct Connection {
    int fd = -1;
    bool pooled = false;
  };

  /// Idle connections kept per node; calls beyond this run on short-lived
  /// extra sockets that close on check-in instead of pooling.
  static constexpr size_t kMaxIdleConnections = 8;

  /// Sends every request, then reads every reply (see the class comment).
  void AttemptEach(Attempt* attempts, size_t n) override;
  /// The endpoint registered for `node`, or null.
  Endpoint* FindEndpoint(NodeId node);
  /// Pops an idle pooled connection (unless `fresh`) or dials a new one.
  Result<Connection> CheckOut(Endpoint* endpoint, bool fresh);
  /// Connects a new socket to `endpoint` (TCP_NODELAY, deadline timeouts).
  Result<int> Dial(const Endpoint& endpoint);
  /// Closes every idle connection (after one was found broken: the server
  /// restarted, so all of them are dead).
  void InvalidatePool(Endpoint* endpoint);
  /// Returns a healthy connection to the pool (or closes it if full).
  void CheckIn(Endpoint* endpoint, int fd);

  std::mutex mutex_;
  std::unordered_map<NodeId, std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace oe::net

#endif  // OE_NET_TCP_H_
