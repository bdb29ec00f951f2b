#include "net/transport.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>

#include "common/clock.h"
#include "obs/trace.h"

namespace oe::net {

void NetStats::ExportTo(obs::MetricsRegistry* registry,
                        const obs::Labels& labels) const {
  const Snapshot snap = TakeSnapshot();
  registry->GetGauge("net.requests", labels)
      ->Set(static_cast<int64_t>(snap.requests));
  registry->GetGauge("net.bytes_sent", labels)
      ->Set(static_cast<int64_t>(snap.bytes_sent));
  registry->GetGauge("net.bytes_received", labels)
      ->Set(static_cast<int64_t>(snap.bytes_received));
  registry->GetGauge("net.failed_requests", labels)
      ->Set(static_cast<int64_t>(snap.failed_requests));
  registry->GetGauge("net.retries", labels)
      ->Set(static_cast<int64_t>(snap.retries));
  registry->GetGauge("net.timeouts", labels)
      ->Set(static_cast<int64_t>(snap.timeouts));
}

obs::Distribution* Transport::RpcLatencyFor(NodeId node) {
  std::atomic<obs::Distribution*>& slot =
      node < kMaxTrackedNodes ? rpc_latency_[node] : rpc_latency_other_;
  obs::Distribution* dist = slot.load(std::memory_order_acquire);
  if (dist != nullptr) return dist;
  // Racing threads register the same (name, labels) pair and get the same
  // stable pointer back, so the store below is idempotent.
  const obs::Labels labels = {
      {"transport", std::to_string(obs_id_)},
      {"node", node < kMaxTrackedNodes ? std::to_string(node) : "other"}};
  dist = obs::MetricsRegistry::Default().GetDistribution("net.rpc_ns", labels);
  slot.store(dist, std::memory_order_release);
  return dist;
}

const Buffer& RpcCall::payload() const {
  static const Buffer kEmpty;
  return request != nullptr ? *request : kEmpty;
}

Status Transport::Call(NodeId node, uint32_t method, const Buffer& request,
                       Buffer* response) {
  RpcCall call{node, method, &request, response, Status::OK()};
  return CallWithRetries(&call, 1);
}

void Transport::RecordCall(const RpcCall& call, Nanos start, Nanos end) {
  RpcLatencyFor(call.node)->Record(static_cast<double>(end - start));
  obs::TraceRecorder& trace = obs::TraceRecorder::Default();
  if (trace.enabled()) trace.RecordSpan("net", "rpc", start, end - start);
}

void Transport::AttemptEach(Attempt* attempts, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    RpcCall& call = *attempts[i].call;
    call.status = CallOnce(call.node, call.method, call.payload(),
                           call.response);
    attempts[i].done_ns = WallNowNanos();
  }
}

Status Transport::CallWithRetries(RpcCall* calls, size_t n) {
  const RpcOptions& options = rpc_options_;
  const Nanos start = WallNowNanos();
  const Nanos deadline =
      options.deadline_ms > 0 ? start + options.deadline_ms * 1'000'000 : 0;
  int64_t backoff_ms = std::max<int64_t>(1, options.backoff_initial_ms);
  // The calls still to attempt, compacted in place after every round. A
  // single call (every Call()) needs no allocation.
  Attempt single{calls};
  std::vector<Attempt> many(n > 1 ? n : 0);
  for (size_t i = 0; i < many.size(); ++i) many[i].call = &calls[i];
  Attempt* pending = n > 1 ? many.data() : &single;
  size_t left = n;
  for (int attempt = 0;; ++attempt) {
    AttemptEach(pending, left);
    const size_t attempted = left;
    left = 0;
    for (size_t i = 0; i < attempted; ++i) {
      RpcCall* call = pending[i].call;
      const StatusCode code = call->status.code();
      if (code == StatusCode::kTimedOut) {
        stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
      }
      if (code != StatusCode::kOk) {
        stats_.failed_requests.fetch_add(1, std::memory_order_relaxed);
      }
      if (code == StatusCode::kOk || !IsRetryable(code) ||
          attempt >= options.max_retries) {
        RecordCall(*call, start, pending[i].done_ns);
      } else {
        pending[left++] = pending[i];
      }
    }
    if (left == 0) break;
    if (deadline != 0) {
      const Nanos now = WallNowNanos();
      const Nanos remaining = deadline - now;
      if (remaining <= 0) {
        for (size_t i = 0; i < left; ++i) {
          stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
          RpcCall* call = pending[i].call;
          call->status = Status::TimedOut(
              "rpc deadline exceeded after " + std::to_string(attempt + 1) +
              " attempt(s); last: " + call->status.ToString());
          RecordCall(*call, start, now);
        }
        break;
      }
      // Never sleep past the deadline: cap the backoff at what is left.
      backoff_ms = std::min<int64_t>(backoff_ms, remaining / 1'000'000 + 1);
    }
    {
      obs::ScopedSpan backoff_span("net", "backoff");
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    backoff_ms = std::min<int64_t>(
        options.backoff_max_ms,
        static_cast<int64_t>(static_cast<double>(backoff_ms) *
                             options.backoff_multiplier));
    for (size_t i = 0; i < left; ++i) {
      stats_.retries.fetch_add(1, std::memory_order_relaxed);
      pending[i].call->response->clear();
    }
  }
  return AggregateCallErrors(calls, n);
}

ThreadPool* Transport::pool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ == nullptr) {
    const unsigned hw = std::thread::hardware_concurrency();
    pool_ = std::make_unique<ThreadPool>(
        static_cast<int>(std::max(8u, 2 * hw)));
  }
  return pool_.get();
}

Status Transport::ParallelCall(RpcCall* calls, size_t n) {
  if (n == 0) return Status::OK();
  if (n == 1) {
    calls[0].status = Call(calls[0].node, calls[0].method, calls[0].payload(),
                           calls[0].response);
    return calls[0].status;
  }

  std::mutex mutex;
  std::condition_variable cv;
  size_t outstanding = n - 1;
  ThreadPool* fan_out = pool();
  for (size_t i = 1; i < n; ++i) {
    RpcCall* call = &calls[i];
    fan_out->Submit([this, call, &mutex, &cv, &outstanding] {
      call->status =
          Call(call->node, call->method, call->payload(), call->response);
      std::lock_guard<std::mutex> lock(mutex);
      if (--outstanding == 0) cv.notify_one();
    });
  }
  calls[0].status = Call(calls[0].node, calls[0].method, calls[0].payload(),
                         calls[0].response);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  return AggregateCallErrors(calls, n);
}

Status Transport::AggregateCallErrors(const RpcCall* calls, size_t n) {
  const RpcCall* first = nullptr;
  size_t failing = 0;
  for (size_t i = 0; i < n; ++i) {
    if (calls[i].status.ok()) continue;
    ++failing;
    if (first == nullptr) first = &calls[i];
  }
  if (first == nullptr) return Status::OK();
  if (n == 1) return first->status;
  // Keep the first failure's code (deterministic in call order) but name
  // every failing node in the message.
  std::string message;
  if (failing > 1) message = std::to_string(failing) + " nodes failed: ";
  for (size_t i = 0; i < n; ++i) {
    if (calls[i].status.ok()) continue;
    if (&calls[i] != first) message += "; ";
    message += "node " + std::to_string(calls[i].node) + ": " +
               calls[i].status.ToString();
  }
  return Status::FromCode(first->status.code(), std::move(message));
}

void InProcTransport::RegisterNode(NodeId node, RpcHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  handlers_[node] = std::move(handler);
}

void InProcTransport::UnregisterNode(NodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  handlers_.erase(node);
}

Status InProcTransport::CallOnce(NodeId node, uint32_t method,
                                 const Buffer& request, Buffer* response) {
  RpcHandler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handlers_.find(node);
    if (it == handlers_.end()) {
      return Status::NotFound("no such node: " + std::to_string(node));
    }
    handler = it->second;
  }
  response->clear();
  Status status = handler(method, request, response);
  stats_.Record(request.size(), response->size());
  return status;
}

}  // namespace oe::net
