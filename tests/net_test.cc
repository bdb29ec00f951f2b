#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "net/message.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace oe::net {
namespace {

TEST(MessageTest, WriterReaderRoundTrip) {
  Buffer buffer;
  Writer writer(&buffer);
  writer.PutU32(7);
  writer.PutU64(1ULL << 40);
  writer.PutFloat(3.5f);
  std::vector<uint64_t> keys = {1, 2, 3};
  writer.PutU64Span(keys.data(), keys.size());
  std::vector<float> floats = {0.5f, -0.5f};
  writer.PutFloatSpan(floats.data(), floats.size());
  writer.PutString("hello");

  Reader reader(buffer);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  float f = 0;
  std::vector<uint64_t> keys_out;
  std::vector<float> floats_out;
  std::string s;
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  ASSERT_TRUE(reader.GetU64(&u64).ok());
  ASSERT_TRUE(reader.GetFloat(&f).ok());
  ASSERT_TRUE(reader.GetU64Span(&keys_out).ok());
  ASSERT_TRUE(reader.GetFloatSpan(&floats_out).ok());
  ASSERT_TRUE(reader.GetString(&s).ok());
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 1ULL << 40);
  EXPECT_FLOAT_EQ(f, 3.5f);
  EXPECT_EQ(keys_out, keys);
  EXPECT_EQ(floats_out, floats);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(MessageTest, TruncatedInputRejected) {
  Buffer buffer;
  Writer writer(&buffer);
  writer.PutU32(100);  // claims a 100-element span with no payload
  Reader reader(buffer);
  std::vector<uint64_t> out;
  EXPECT_FALSE(reader.GetU64Span(&out).ok());
}

TEST(MessageTest, EmptyReader) {
  Reader reader(nullptr, 0);
  uint32_t v = 0;
  EXPECT_FALSE(reader.GetU32(&v).ok());
}

TEST(InProcTransportTest, EchoCall) {
  InProcTransport transport;
  transport.RegisterNode(3, [](uint32_t method, const Buffer& request,
                               Buffer* response) {
    EXPECT_EQ(method, 9u);
    *response = request;
    return Status::OK();
  });
  Buffer request = {1, 2, 3};
  Buffer response;
  ASSERT_TRUE(transport.Call(3, 9, request, &response).ok());
  EXPECT_EQ(response, request);
  EXPECT_EQ(transport.stats().requests.load(), 1u);
  EXPECT_EQ(transport.stats().bytes_sent.load(), 3u);
}

TEST(InProcTransportTest, UnknownNodeFails) {
  InProcTransport transport;
  Buffer response;
  EXPECT_TRUE(transport.Call(1, 0, {}, &response).IsNotFound());
}

TEST(InProcTransportTest, HandlerErrorPropagates) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Aborted("nope");
  });
  Buffer response;
  auto status = transport.Call(0, 0, {}, &response);
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST(InProcTransportTest, UnregisterRemovesNode) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer* response) {
    response->push_back(1);
    return Status::OK();
  });
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {}, &response).ok());
  transport.UnregisterNode(0);
  EXPECT_FALSE(transport.Call(0, 0, {}, &response).ok());
}

TEST(ParallelCallTest, FansOutAndReassembles) {
  InProcTransport transport;
  for (NodeId node = 0; node < 6; ++node) {
    transport.RegisterNode(node, [node](uint32_t method, const Buffer& request,
                                        Buffer* response) {
      *response = request;
      response->push_back(static_cast<uint8_t>(node));
      response->push_back(static_cast<uint8_t>(method));
      return Status::OK();
    });
  }
  std::vector<Buffer> requests(6);
  std::vector<Buffer> responses(6);
  std::vector<RpcCall> calls(6);
  for (NodeId node = 0; node < 6; ++node) {
    requests[node] = {static_cast<uint8_t>(100 + node)};
    calls[node].node = node;
    calls[node].method = 7 + node;
    calls[node].request = &requests[node];
    calls[node].response = &responses[node];
  }
  ASSERT_TRUE(transport.ParallelCall(&calls).ok());
  for (NodeId node = 0; node < 6; ++node) {
    Buffer expected = {static_cast<uint8_t>(100 + node),
                       static_cast<uint8_t>(node),
                       static_cast<uint8_t>(7 + node)};
    EXPECT_EQ(responses[node], expected) << "node " << node;
    EXPECT_TRUE(calls[node].status.ok());
  }
}

TEST(ParallelCallTest, FirstErrorInCallOrderWins) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer*) {
    // Finishes last but sits first in the call array.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::Aborted("first");
  });
  transport.RegisterNode(1, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Internal("second");
  });
  transport.RegisterNode(2, [](uint32_t, const Buffer&, Buffer*) {
    return Status::OK();
  });
  std::vector<Buffer> responses(3);
  std::vector<RpcCall> calls(3);
  for (NodeId node = 0; node < 3; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  auto status = transport.ParallelCall(&calls);
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("first"), std::string::npos);
  // Every per-call status is still individually reported.
  EXPECT_EQ(calls[1].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(calls[2].status.ok());
}

TEST(ParallelCallTest, CallsActuallyOverlap) {
  InProcTransport transport;
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  for (NodeId node = 0; node < 4; ++node) {
    transport.RegisterNode(node, [&](uint32_t, const Buffer&, Buffer*) {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      in_flight.fetch_sub(1);
      return Status::OK();
    });
  }
  std::vector<Buffer> responses(4);
  std::vector<RpcCall> calls(4);
  for (NodeId node = 0; node < 4; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  ASSERT_TRUE(transport.ParallelCall(&calls).ok());
  EXPECT_GT(max_in_flight.load(), 1);
}

TEST(TcpTest, RoundTripOverLoopback) {
  auto server = TcpServer::Start(0, [](uint32_t method,
                                       const Buffer& request,
                                       Buffer* response) {
    Writer writer(response);
    writer.PutU32(method * 2);
    writer.PutRaw(request.data(), request.size());
    return Status::OK();
  }).ValueOrDie();

  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  Buffer request = {9, 8, 7};
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 21, request, &response).ok());
  Reader reader(response);
  uint32_t doubled = 0;
  ASSERT_TRUE(reader.GetU32(&doubled).ok());
  EXPECT_EQ(doubled, 42u);
  std::vector<uint8_t> echoed(3);
  ASSERT_TRUE(reader.GetRaw(echoed.data(), 3).ok());
  EXPECT_EQ(echoed, std::vector<uint8_t>({9, 8, 7}));
}

TEST(TcpTest, RemoteErrorSurfacesMessage) {
  auto server = TcpServer::Start(0, [](uint32_t, const Buffer&, Buffer*) {
    return Status::InvalidArgument("bad payload");
  }).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  Buffer response;
  auto status = transport.Call(0, 1, {}, &response);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad payload"), std::string::npos);
}

TEST(TcpTest, RemoteStatusCodesRoundTrip) {
  auto server = TcpServer::Start(0, [](uint32_t method, const Buffer&,
                                       Buffer*) {
    if (method == 1) return Status::WrongOwner("slot 7 moved");
    if (method == 2) return Status::Unavailable("draining");
    // A code no StatusCode names: the client must not trust it.
    return Status::FromCode(static_cast<StatusCode>(200), "from the future");
  }).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  Buffer response;

  Status status = transport.Call(0, 1, {}, &response);
  EXPECT_TRUE(status.IsWrongOwner()) << status.ToString();
  EXPECT_NE(status.message().find("slot 7 moved"), std::string::npos);

  status = transport.Call(0, 2, {}, &response);
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_NE(status.message().find("draining"), std::string::npos);

  status = transport.Call(0, 3, {}, &response);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("from the future"), std::string::npos);
  EXPECT_TRUE(response.empty());
}

TEST(TcpTest, RemoteUnavailableIsRetried) {
  std::atomic<int> attempts{0};
  auto server = TcpServer::Start(0, [&](uint32_t, const Buffer& request,
                                        Buffer* response) {
    if (attempts.fetch_add(1) == 0) return Status::Unavailable("warming up");
    *response = request;
    return Status::OK();
  }).ValueOrDie();
  TcpTransport transport;
  RpcOptions options;
  options.max_retries = 2;
  transport.set_rpc_options(options);
  transport.AddNode(0, "127.0.0.1", server->port());
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {4}, &response).ok());
  EXPECT_EQ(response, Buffer({4}));
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(transport.stats().retries.load(), 1u);
}

TEST(TcpTest, MultipleSequentialCallsReuseConnection) {
  std::atomic<int> calls{0};
  auto server = TcpServer::Start(0, [&](uint32_t, const Buffer&,
                                        Buffer* response) {
    response->push_back(static_cast<uint8_t>(calls.fetch_add(1)));
    return Status::OK();
  }).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  for (int i = 0; i < 5; ++i) {
    Buffer response;
    ASSERT_TRUE(transport.Call(0, 0, {}, &response).ok());
    EXPECT_EQ(response[0], i);
  }
  EXPECT_EQ(calls.load(), 5);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", 1);  // reserved port, nothing listening
  Buffer response;
  EXPECT_FALSE(transport.Call(0, 0, {}, &response).ok());
}

TEST(TcpTest, OversizedPayloadRejectedAtSender) {
  std::atomic<int> calls{0};
  auto server = TcpServer::Start(0, [&](uint32_t, const Buffer& request,
                                        Buffer* response) {
    calls.fetch_add(1);
    *response = request;
    return Status::OK();
  }).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());

  Buffer oversized(kMaxFramePayloadBytes + 1, 0);
  Buffer response;
  auto status = transport.Call(0, 0, oversized, &response);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls.load(), 0);  // rejected before any bytes hit the wire

  // The connection is still usable afterwards: nothing partial was sent.
  Buffer request = {1, 2, 3};
  ASSERT_TRUE(transport.Call(0, 0, request, &response).ok());
  EXPECT_EQ(response, request);
  EXPECT_EQ(calls.load(), 1);
}

TEST(TcpTest, ParallelCallsToOneNodeUseSeparateConnections) {
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  auto server = TcpServer::Start(0, [&](uint32_t, const Buffer& request,
                                        Buffer* response) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    in_flight.fetch_sub(1);
    *response = request;
    return Status::OK();
  }).ValueOrDie();

  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        Buffer request = {static_cast<uint8_t>(i)};
        Buffer response;
        if (!transport.Call(0, 0, request, &response).ok() ||
            response != request) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // With a per-node connection pool the four client threads overlap instead
  // of serializing on one endpoint mutex.
  EXPECT_GT(max_in_flight.load(), 1);
}

TEST(TcpTest, FinishedConnectionsAreReaped) {
  auto server = TcpServer::Start(0, [](uint32_t, const Buffer& request,
                                       Buffer* response) {
    *response = request;
    return Status::OK();
  }).ValueOrDie();

  for (int i = 0; i < 8; ++i) {
    TcpTransport transport;  // dtor closes its pooled connection
    transport.AddNode(0, "127.0.0.1", server->port());
    Buffer response;
    ASSERT_TRUE(transport.Call(0, 0, {1}, &response).ok());
  }
  // Closed connections unregister themselves; give the server a moment to
  // notice the EOFs.
  for (int spin = 0; spin < 100 && server->ActiveConnections() > 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(server->ActiveConnections(), 1u);
}

// ---------- Retry policy (Transport::Call over CallOnce) ----------

TEST(RetryTest, FlakyHandlerEventuallySucceeds) {
  InProcTransport transport;
  std::atomic<int> attempts{0};
  transport.RegisterNode(0, [&](uint32_t, const Buffer&, Buffer* response) {
    if (attempts.fetch_add(1) < 2) {
      return Status::Unavailable("flaky");
    }
    response->push_back(42);
    return Status::OK();
  });
  RpcOptions options;
  options.max_retries = 3;
  options.backoff_initial_ms = 1;
  transport.set_rpc_options(options);

  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {}, &response).ok());
  EXPECT_EQ(response, Buffer({42}));
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(transport.stats().failed_requests.load(), 2u);
  EXPECT_EQ(transport.stats().retries.load(), 2u);
}

TEST(RetryTest, RetriesExhaustedReturnsLastError) {
  InProcTransport transport;
  std::atomic<int> attempts{0};
  transport.RegisterNode(0, [&](uint32_t, const Buffer&, Buffer*) {
    attempts.fetch_add(1);
    return Status::Unavailable("still down");
  });
  RpcOptions options;
  options.max_retries = 2;
  transport.set_rpc_options(options);

  Buffer response;
  auto status = transport.Call(0, 0, {}, &response);
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(attempts.load(), 3);  // 1 initial + 2 retries
}

TEST(RetryTest, NonRetryableErrorFailsFast) {
  InProcTransport transport;
  std::atomic<int> attempts{0};
  transport.RegisterNode(0, [&](uint32_t, const Buffer&, Buffer*) {
    attempts.fetch_add(1);
    return Status::Aborted("semantic error");
  });
  RpcOptions options;
  options.max_retries = 5;
  transport.set_rpc_options(options);

  Buffer response;
  EXPECT_EQ(transport.Call(0, 0, {}, &response).code(),
            StatusCode::kAborted);
  EXPECT_EQ(attempts.load(), 1);
  EXPECT_EQ(transport.stats().retries.load(), 0u);
}

TEST(RetryTest, DeadlineCapsTheRetryLoop) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Unavailable("never up");
  });
  RpcOptions options;
  options.max_retries = 1000000;
  options.deadline_ms = 30;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 5;
  transport.set_rpc_options(options);

  Buffer response;
  auto status = transport.Call(0, 0, {}, &response);
  EXPECT_EQ(status.code(), StatusCode::kTimedOut);
  EXPECT_GT(transport.stats().timeouts.load(), 0u);
  EXPECT_GT(transport.stats().retries.load(), 0u);
}

TEST(RetryTest, StaleResponseClearedBetweenAttempts) {
  InProcTransport transport;
  std::atomic<int> attempts{0};
  transport.RegisterNode(0, [&](uint32_t, const Buffer&, Buffer* response) {
    if (attempts.fetch_add(1) == 0) {
      response->push_back(99);  // partial junk before the failure
      return Status::IoError("broke mid-response");
    }
    response->push_back(1);
    return Status::OK();
  });
  RpcOptions options;
  options.max_retries = 1;
  transport.set_rpc_options(options);

  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {}, &response).ok());
  EXPECT_EQ(response, Buffer({1}));  // junk from attempt 1 not visible
}

// ---------- ParallelCall error aggregation ----------

TEST(ParallelCallTest, AggregatesAllFailingNodes) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer*) {
    return Status::OK();
  });
  transport.RegisterNode(1, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Aborted("node one broke");
  });
  transport.RegisterNode(2, [](uint32_t, const Buffer&, Buffer*) {
    return Status::OK();
  });
  transport.RegisterNode(3, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Internal("node three broke");
  });
  std::vector<Buffer> responses(4);
  std::vector<RpcCall> calls(4);
  for (NodeId node = 0; node < 4; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  auto status = transport.ParallelCall(&calls);
  // Code of the first failure in call order; message names every failure.
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("node 1"), std::string::npos);
  EXPECT_NE(status.message().find("node one broke"), std::string::npos);
  EXPECT_NE(status.message().find("node 3"), std::string::npos);
  EXPECT_NE(status.message().find("node three broke"), std::string::npos);
}

TEST(ParallelCallTest, HandlerFailingMidFanOutLeavesOthersIntact) {
  InProcTransport transport;
  for (NodeId node = 0; node < 5; ++node) {
    transport.RegisterNode(node, [node](uint32_t, const Buffer&,
                                        Buffer* response) {
      if (node == 2) return Status::Unavailable("mid-fan-out death");
      response->push_back(static_cast<uint8_t>(node));
      return Status::OK();
    });
  }
  std::vector<Buffer> responses(5);
  std::vector<RpcCall> calls(5);
  for (NodeId node = 0; node < 5; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  auto status = transport.ParallelCall(&calls);
  EXPECT_TRUE(status.IsUnavailable());
  for (NodeId node = 0; node < 5; ++node) {
    if (node == 2) {
      EXPECT_TRUE(calls[node].status.IsUnavailable());
    } else {
      EXPECT_TRUE(calls[node].status.ok()) << "node " << node;
      EXPECT_EQ(responses[node], Buffer({static_cast<uint8_t>(node)}));
    }
  }
}

// ---------- TCP fault paths ----------

TEST(TcpTest, ConnectionRefusedIsUnavailable) {
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", 1);  // reserved port, nothing listening
  Buffer response;
  EXPECT_TRUE(transport.Call(0, 0, {}, &response).IsUnavailable());
}

TEST(TcpTest, SurvivesServerRestartOnSamePort) {
  std::atomic<int> generation{1};
  auto handler = [&](uint32_t, const Buffer& request, Buffer* response) {
    *response = request;
    response->push_back(static_cast<uint8_t>(generation.load()));
    return Status::OK();
  };
  auto server = TcpServer::Start(0, handler).ValueOrDie();
  const uint16_t port = server->port();

  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", port);
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {5}, &response).ok());
  EXPECT_EQ(response, Buffer({5, 1}));

  // Server process "restarts": every pooled client connection is now dead.
  // Sending on one raises EPIPE — which must surface as an error, not a
  // SIGPIPE process kill — and the transport must transparently redial.
  server.reset();
  generation.store(2);
  server = TcpServer::Start(port, handler).ValueOrDie();

  ASSERT_TRUE(transport.Call(0, 0, {6}, &response).ok());
  EXPECT_EQ(response, Buffer({6, 2}));

  // And the fresh connection pools normally afterwards.
  ASSERT_TRUE(transport.Call(0, 0, {7}, &response).ok());
  EXPECT_EQ(response, Buffer({7, 2}));
}

TEST(TcpTest, ServerGoneMidSessionFailsThenRecoversViaRetry) {
  auto handler = [](uint32_t, const Buffer& request, Buffer* response) {
    *response = request;
    return Status::OK();
  };
  auto server = TcpServer::Start(0, handler).ValueOrDie();
  const uint16_t port = server->port();

  TcpTransport transport;
  RpcOptions options;
  options.max_retries = 0;
  transport.set_rpc_options(options);
  transport.AddNode(0, "127.0.0.1", port);
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {1}, &response).ok());

  // Server down entirely: the pooled connection is stale AND redial is
  // refused, so the call fails with a retryable code.
  server.reset();
  auto status = transport.Call(0, 0, {2}, &response);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsRetryable(status.code())) << status.ToString();

  // Back up: the next call (a fresh dial) succeeds without any pool state
  // poisoning it.
  server = TcpServer::Start(port, handler).ValueOrDie();
  ASSERT_TRUE(transport.Call(0, 0, {3}, &response).ok());
  EXPECT_EQ(response, Buffer({3}));
}

TEST(TcpTest, ConcurrentClients) {
  auto server = TcpServer::Start(0, [](uint32_t, const Buffer& request,
                                       Buffer* response) {
    *response = request;
    return Status::OK();
  }).ValueOrDie();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      TcpTransport transport;
      transport.AddNode(0, "127.0.0.1", server->port());
      for (int i = 0; i < 20; ++i) {
        Buffer request = {static_cast<uint8_t>(t), static_cast<uint8_t>(i)};
        Buffer response;
        if (!transport.Call(0, 0, request, &response).ok() ||
            response != request) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------- TCP fan-out: send every request, then read the replies ----------

/// Echo server that appends `tag` to every reply.
std::unique_ptr<TcpServer> StartTaggedEcho(uint8_t tag, uint16_t port = 0) {
  return TcpServer::Start(port, [tag](uint32_t, const Buffer& request,
                                      Buffer* response) {
    *response = request;
    response->push_back(tag);
    return Status::OK();
  }).ValueOrDie();
}

/// A two-node fan-out of `requests[i]` to node i.
std::vector<RpcCall> TwoNodeCalls(std::vector<Buffer>* requests,
                                  std::vector<Buffer>* responses) {
  responses->assign(2, Buffer());
  std::vector<RpcCall> calls(2);
  for (NodeId node = 0; node < 2; ++node) {
    calls[node].node = node;
    calls[node].request = &(*requests)[node];
    calls[node].response = &(*responses)[node];
  }
  return calls;
}

size_t ThreadsInProcess() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

TEST(TcpFanOutTest, RequestsOverlap) {
  // Each handler waits (bounded) until both requests have arrived, which
  // only happens if the client sent the second request before reading the
  // first reply.
  std::atomic<int> arrived{0};
  auto handler = [&](uint32_t, const Buffer& request, Buffer* response) {
    arrived.fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (arrived.load() < 2 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (arrived.load() < 2) return Status::Aborted("requests did not overlap");
    *response = request;
    return Status::OK();
  };
  auto server0 = TcpServer::Start(0, handler).ValueOrDie();
  auto server1 = TcpServer::Start(0, handler).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server0->port());
  transport.AddNode(1, "127.0.0.1", server1->port());

  std::vector<Buffer> requests = {{1}, {2}};
  std::vector<Buffer> responses;
  std::vector<RpcCall> calls = TwoNodeCalls(&requests, &responses);
  const Status status = transport.ParallelCall(&calls);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(responses[0], Buffer({1}));
  EXPECT_EQ(responses[1], Buffer({2}));
}

TEST(TcpFanOutTest, StartsNoThreads) {
  auto server0 = StartTaggedEcho(10);
  auto server1 = StartTaggedEcho(11);
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server0->port());
  transport.AddNode(1, "127.0.0.1", server1->port());
  // Warm up with plain Calls: each server starts its connection thread.
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {}, &response).ok());
  ASSERT_TRUE(transport.Call(1, 0, {}, &response).ok());

  const size_t before = ThreadsInProcess();
  std::vector<Buffer> requests = {{1}, {2}};
  std::vector<Buffer> responses;
  for (int i = 0; i < 200; ++i) {
    std::vector<RpcCall> calls = TwoNodeCalls(&requests, &responses);
    ASSERT_TRUE(transport.ParallelCall(&calls).ok());
    ASSERT_EQ(responses[0], Buffer({1, 10}));
    ASSERT_EQ(responses[1], Buffer({2, 11}));
  }
  EXPECT_EQ(ThreadsInProcess(), before);
}

TEST(TcpFanOutTest, SurvivesOneServerRestartBetweenFanOuts) {
  auto server0 = StartTaggedEcho(10);
  auto server1 = StartTaggedEcho(11);
  const uint16_t port1 = server1->port();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server0->port());
  transport.AddNode(1, "127.0.0.1", port1);
  std::vector<Buffer> requests = {{1}, {2}};
  std::vector<Buffer> responses;
  std::vector<RpcCall> calls = TwoNodeCalls(&requests, &responses);
  ASSERT_TRUE(transport.ParallelCall(&calls).ok());

  // Node 1 restarts on its port: its pooled connection is now stale, and
  // the fan-out must redial it without disturbing node 0's exchange.
  server1.reset();
  server1 = StartTaggedEcho(21, port1);
  requests = {{3}, {4}};
  calls = TwoNodeCalls(&requests, &responses);
  const Status status = transport.ParallelCall(&calls);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(responses[0], Buffer({3, 10}));
  EXPECT_EQ(responses[1], Buffer({4, 21}));
}

TEST(TcpFanOutTest, RefusedNodeIsNamedAndCountedLikeCall) {
  auto server0 = StartTaggedEcho(10);
  RpcOptions options;
  options.max_retries = 2;
  options.backoff_initial_ms = 1;

  TcpTransport fan_out;
  fan_out.set_rpc_options(options);
  fan_out.AddNode(0, "127.0.0.1", server0->port());
  fan_out.AddNode(1, "127.0.0.1", 1);  // reserved port, nothing listening
  std::vector<Buffer> requests = {{1}, {2}};
  std::vector<Buffer> responses;
  std::vector<RpcCall> calls = TwoNodeCalls(&requests, &responses);
  const Status status = fan_out.ParallelCall(&calls);
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_NE(status.message().find("node 1"), std::string::npos);
  EXPECT_TRUE(calls[0].status.ok());
  EXPECT_EQ(responses[0], Buffer({1, 10}));
  EXPECT_TRUE(calls[1].status.IsUnavailable());

  TcpTransport single;
  single.set_rpc_options(options);
  single.AddNode(1, "127.0.0.1", 1);
  Buffer response;
  EXPECT_TRUE(single.Call(1, 0, {2}, &response).IsUnavailable());

  const NetStats::Snapshot a = fan_out.stats().TakeSnapshot();
  const NetStats::Snapshot b = single.stats().TakeSnapshot();
  EXPECT_EQ(a.failed_requests, 3u);  // 1 attempt + 2 retries
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

TEST(TcpFanOutTest, HungNodesTimeOutTogether) {
  // Replies are read in call order, but under a deadline every read of an
  // attempt shares one bound: two hung nodes must not take twice as long
  // as one.
  std::atomic<bool> release{false};
  auto handler = [&](uint32_t, const Buffer& request, Buffer* response) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!release.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    *response = request;
    return Status::OK();
  };
  auto server0 = TcpServer::Start(0, handler).ValueOrDie();
  auto server1 = TcpServer::Start(0, handler).ValueOrDie();
  TcpTransport transport;
  RpcOptions options;
  options.deadline_ms = 200;
  transport.set_rpc_options(options);
  transport.AddNode(0, "127.0.0.1", server0->port());
  transport.AddNode(1, "127.0.0.1", server1->port());

  std::vector<Buffer> requests = {{1}, {2}};
  std::vector<Buffer> responses;
  std::vector<RpcCall> calls = TwoNodeCalls(&requests, &responses);
  const auto start = std::chrono::steady_clock::now();
  const Status status = transport.ParallelCall(&calls);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  release.store(true);
  EXPECT_EQ(status.code(), StatusCode::kTimedOut) << status.ToString();
  EXPECT_EQ(calls[0].status.code(), StatusCode::kTimedOut);
  EXPECT_EQ(calls[1].status.code(), StatusCode::kTimedOut);
  // One deadline per node in turn would take at least 400 ms.
  EXPECT_LT(elapsed, std::chrono::milliseconds(350));
}

TEST(TcpFanOutTest, ConcurrentFanOutsShareOneTransport) {
  auto server0 = StartTaggedEcho(10);
  auto server1 = StartTaggedEcho(11);
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server0->port());
  transport.AddNode(1, "127.0.0.1", server1->port());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        std::vector<Buffer> requests = {
            {static_cast<uint8_t>(t), static_cast<uint8_t>(i), 0},
            {static_cast<uint8_t>(t), static_cast<uint8_t>(i), 1}};
        std::vector<Buffer> responses;
        std::vector<RpcCall> calls = TwoNodeCalls(&requests, &responses);
        Buffer expected0 = requests[0];
        expected0.push_back(10);
        Buffer expected1 = requests[1];
        expected1.push_back(11);
        if (!transport.ParallelCall(&calls).ok() ||
            responses[0] != expected0 || responses[1] != expected1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TcpFanOutTest, LargeFramesBothWaysDoNotDeadlock) {
  // Replies bigger than the socket buffers: each server blocks writing its
  // reply until the client reads it, which is safe because every request
  // was read in full before its reply was written.
  auto server0 = StartTaggedEcho(10);
  auto server1 = StartTaggedEcho(11);
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server0->port());
  transport.AddNode(1, "127.0.0.1", server1->port());
  std::vector<Buffer> requests(2);
  for (size_t node = 0; node < 2; ++node) {
    requests[node].resize(2u << 20);
    for (size_t i = 0; i < requests[node].size(); ++i) {
      requests[node][i] = static_cast<uint8_t>(i * 31 + node);
    }
  }
  std::vector<Buffer> responses;
  std::vector<RpcCall> calls = TwoNodeCalls(&requests, &responses);
  ASSERT_TRUE(transport.ParallelCall(&calls).ok());
  for (size_t node = 0; node < 2; ++node) {
    ASSERT_EQ(responses[node].size(), requests[node].size() + 1);
    EXPECT_TRUE(std::equal(requests[node].begin(), requests[node].end(),
                           responses[node].begin()));
    EXPECT_EQ(responses[node].back(), 10 + node);
  }
}

}  // namespace
}  // namespace oe::net
