#include "src/server/tcp_server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/server/replication.h"
#include "src/server/socket.h"
#include "src/server/wire.h"
#include "src/util/fault.h"
#include "src/util/governor.h"

namespace streamhist {
namespace net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// One admitted client connection. Owned by exactly one worker thread, so
/// none of this state needs synchronization — cross-connection concurrency
/// lives entirely inside QueryEngine::Execute.
struct Connection {
  UniqueFd fd;
  std::string input;
  std::string output;
  size_t output_pos = 0;
  /// An oversized line drew its ERR; swallow bytes to the next newline.
  bool discarding_line = false;
  /// Protocol damage: flush what is queued, then close.
  bool close_after_flush = false;
  /// EPOLLIN currently disabled (backpressure / full input buffer).
  bool paused = false;
  /// EPOLLOUT currently enabled.
  bool want_write = false;
  /// Governor bytes charged at admission, released on destruction.
  int64_t charge = 0;
  /// >= 0 once a replication Subscribe frame was accepted: the requested
  /// from-LSN. The connection leaves the statement protocol — as soon as its
  /// queued replies drain, the socket is handed to the ReplicationHub.
  int64_t subscribe_from = -1;
  /// Last moment queued output shrank — the slow-reader clock.
  SteadyClock::time_point last_progress{};

  size_t PendingOut() const { return output.size() - output_pos; }
};

struct Stats {
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> refused_over_cap{0};
  std::atomic<int64_t> refused_over_budget{0};
  std::atomic<int64_t> accept_faults{0};
  std::atomic<int64_t> active{0};
  std::atomic<int64_t> statements{0};
  std::atomic<int64_t> statement_errors{0};
  std::atomic<int64_t> batch_frames{0};
  std::atomic<int64_t> batch_values{0};
  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> slow_reader_disconnects{0};
  std::atomic<int64_t> dropped_mid_request{0};
  std::atomic<int64_t> repl_subscribes{0};
  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};
};

/// A connection handed from the acceptor to its owning worker.
struct Handoff {
  int fd = -1;
  int64_t charge = 0;
};

}  // namespace

struct TcpServer::Impl {
  QueryEngine& engine;
  ServerOptions options;
  size_t input_cap = 0;       // per-connection input buffer bound
  int64_t conn_charge = 0;    // governor bytes per admitted connection
  UniqueFd listen_fd;
  uint16_t port = 0;
  Stats stats;
  std::atomic<bool> stop{false};
  std::once_flag shutdown_once;
  size_t next_worker = 0;  // round-robin deal; only the acceptor touches it

  struct Worker {
    UniqueFd epoll;
    UniqueFd wake;
    std::unordered_map<int, Connection> conns;
    std::mutex inbox_mu;
    std::vector<Handoff> inbox;
    std::thread thread;
  };
  // deque-free stable storage: workers never move once the threads start.
  std::vector<std::unique_ptr<Worker>> workers;

  explicit Impl(QueryEngine& e) : engine(e) {}

  // --- acceptor (runs on worker 0's loop) ---------------------------------

  void AcceptReady() {
    for (;;) {
      const int raw = ::accept4(listen_fd.get(), nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (raw < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN, or a transient kernel refusal — next event retries
      }
      UniqueFd fd(raw);
      if (fault::Triggered("net.accept")) {
        // Simulated accept-path failure (EMFILE and friends): the socket is
        // dropped before any session state exists.
        stats.accept_faults.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (stats.active.load(std::memory_order_relaxed) >=
          options.max_connections) {
        // Counted before the refusal is written: a client that has seen it
        // (or the close) must also see the counter move.
        stats.refused_over_cap.fetch_add(1, std::memory_order_relaxed);
        RefuseAndClose(std::move(fd),
                       ErrResponse("OVERLOADED",
                                   "connection limit " +
                                       std::to_string(options.max_connections) +
                                       " reached; retry later"));
        continue;
      }
      if (!governor::TryCharge(conn_charge)) {
        stats.refused_over_budget.fetch_add(1, std::memory_order_relaxed);
        RefuseAndClose(
            std::move(fd),
            ErrResponse("RESOURCE_EXHAUSTED",
                        "memory budget refused connection buffers (" +
                            std::to_string(conn_charge) + " bytes)"));
        continue;
      }
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      stats.accepted.fetch_add(1, std::memory_order_relaxed);
      stats.active.fetch_add(1, std::memory_order_relaxed);
      Worker& target = *workers[next_worker];
      next_worker = (next_worker + 1) % workers.size();
      {
        std::lock_guard<std::mutex> lock(target.inbox_mu);
        target.inbox.push_back({fd.Release(), conn_charge});
      }
      WakeWorker(target);
    }
  }

  /// Best-effort typed refusal on a socket that was never admitted: the
  /// send buffer of a fresh connection is empty, so a single nonblocking
  /// write almost always lands whole; if it does not, the close itself is
  /// the answer.
  static void RefuseAndClose(UniqueFd fd, const std::string& line) {
    (void)!WriteFd(fd.get(), line.data(), line.size());
  }

  static void WakeWorker(Worker& worker) {
    const uint64_t one = 1;
    (void)!::write(worker.wake.get(), &one, sizeof(one));
  }

  // --- per-connection protocol pump ---------------------------------------

  void Reply(Connection& conn, std::string bytes) {
    if (conn.PendingOut() == 0) conn.last_progress = SteadyClock::now();
    conn.output.append(bytes);
  }

  Result<std::string> ExecuteStatement(const std::string& statement) {
    ExecContext ctx(options.deadline_ms > 0
                        ? Deadline::AfterMillis(options.deadline_ms)
                        : Deadline::Infinite());
    return engine.Execute(statement, ctx);
  }

  /// Parses and executes everything parseable, stopping early once the
  /// output high-water mark is reached (the no-queuing-to-death rule: a
  /// pipelining client only gets as much execution as it drains replies).
  void ParseAvailable(Connection& conn) {
    // A subscribed connection no longer speaks the statement protocol: any
    // buffered bytes past the Subscribe frame are the hub's to parse.
    if (conn.subscribe_from >= 0) return;
    while (!conn.close_after_flush &&
           conn.PendingOut() < options.max_output_buffer) {
      if (conn.discarding_line) {
        const size_t nl = conn.input.find('\n');
        if (nl == std::string::npos) {
          conn.input.clear();  // still mid-oversized-line; drop and wait
          break;
        }
        conn.input.erase(0, nl + 1);
        conn.discarding_line = false;
        continue;
      }
      if (conn.input.empty()) break;

      if (static_cast<unsigned char>(conn.input[0]) == kBatchFrameFirstByte) {
        const FrameScan scan =
            ScanBatchFrame(conn.input, options.max_frame_bytes);
        if (scan.state == FrameScan::State::kNeedMore) break;
        if (scan.state == FrameScan::State::kBad) {
          // The declared length is untrustworthy, so the next frame boundary
          // is unknowable: answer once, then drop the connection.
          stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          Reply(conn, ErrResponse("PROTOCOL", scan.error));
          conn.close_after_flush = true;
          break;
        }
        const std::string_view frame(conn.input.data(), scan.frame_bytes);
        Result<BatchAppend> batch = DecodeBatchAppend(frame);
        if (!batch.ok()) {
          // CRC/payload damage inside a well-delimited frame: the bytes on
          // the wire cannot be trusted, close after the typed answer.
          stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          Reply(conn, ErrResponse("PROTOCOL", batch.status().message()));
          conn.close_after_flush = true;
          break;
        }
        ExecContext ctx(options.deadline_ms > 0
                            ? Deadline::AfterMillis(options.deadline_ms)
                            : Deadline::Infinite());
        const Result<std::string> result =
            engine.ExecuteBatchAppend(batch->name, batch->values, &ctx);
        if (result.ok()) {
          stats.batch_frames.fetch_add(1, std::memory_order_relaxed);
          stats.batch_values.fetch_add(
              static_cast<int64_t>(batch->values.size()),
              std::memory_order_relaxed);
          Reply(conn, OkResponse(result.value()));
        } else {
          stats.statement_errors.fetch_add(1, std::memory_order_relaxed);
          Reply(conn, ErrResponse(result.status()));
        }
        conn.input.erase(0, scan.frame_bytes);
        continue;
      }

      const auto first_byte = static_cast<unsigned char>(conn.input[0]);
      if (first_byte >= kReplSubscribeFirstByte &&
          first_byte <= (kReplProgressMagic & 0xFFu)) {
        const ReplFrameScan scan =
            ScanReplFrame(conn.input, options.max_frame_bytes);
        if (scan.state == FrameScan::State::kNeedMore) break;
        if (scan.state == FrameScan::State::kBad ||
            scan.magic != kReplSubscribeMagic) {
          // Only Subscribe may open the replication dialogue; anything else
          // here means the peer lost the plot — answer once and close.
          stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          Reply(conn, ErrResponse("PROTOCOL",
                                  scan.error.empty()
                                      ? "unexpected replication frame before "
                                        "subscribe"
                                      : scan.error));
          conn.close_after_flush = true;
          break;
        }
        const Result<int64_t> from = DecodeReplSubscribe(
            std::string_view(conn.input.data(), scan.frame_bytes));
        if (!from.ok()) {
          stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          Reply(conn, ErrResponse("PROTOCOL", from.status().message()));
          conn.close_after_flush = true;
          break;
        }
        if (options.replication_hub == nullptr) {
          stats.statement_errors.fetch_add(1, std::memory_order_relaxed);
          Reply(conn,
                ErrResponse("FAILED_PRECONDITION",
                            "replication is not enabled on this server (it "
                            "needs a write-ahead log: serve with --wal-dir)"));
          conn.close_after_flush = true;
          break;
        }
        if (fault::Triggered("repl.subscribe")) {
          Reply(conn, ErrResponse("OVERLOADED",
                                  "replication subscribe refused (fault)"));
          conn.close_after_flush = true;
          break;
        }
        conn.input.erase(0, scan.frame_bytes);
        conn.subscribe_from = *from;
        break;  // remaining input travels with the socket to the hub
      }

      const size_t nl = conn.input.find('\n');
      if (nl == std::string::npos) {
        if (conn.input.size() > options.max_line_bytes) {
          stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          Reply(conn,
                ErrResponse("PROTOCOL",
                            "statement exceeds the " +
                                std::to_string(options.max_line_bytes) +
                                "-byte line limit"));
          conn.discarding_line = true;
          conn.input.clear();
          continue;
        }
        break;  // incomplete line; wait for more bytes
      }
      if (nl > options.max_line_bytes) {
        stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        Reply(conn, ErrResponse("PROTOCOL",
                                "statement exceeds the " +
                                    std::to_string(options.max_line_bytes) +
                                    "-byte line limit"));
        conn.input.erase(0, nl + 1);
        continue;
      }
      std::string line = conn.input.substr(0, nl);
      conn.input.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const size_t first = line.find_first_not_of(" \t");
      if (first == std::string::npos || line[first] == '#') {
        continue;  // blank / comment: no reply, like the console
      }
      const Result<std::string> result = ExecuteStatement(line);
      if (result.ok()) {
        stats.statements.fetch_add(1, std::memory_order_relaxed);
        Reply(conn, OkResponse(result.value()));
      } else {
        stats.statement_errors.fetch_add(1, std::memory_order_relaxed);
        Reply(conn, ErrResponse(result.status()));
      }
    }
  }

  /// Writes queued output; false when the connection died mid-write.
  /// (The caller destroys it.)
  bool FlushOutput(Connection& conn) {
    while (conn.PendingOut() > 0) {
      const ssize_t n = WriteFd(conn.fd.get(), conn.output.data() + conn.output_pos,
                                conn.PendingOut());
      if (n > 0) {
        conn.output_pos += static_cast<size_t>(n);
        conn.last_progress = SteadyClock::now();
        stats.bytes_out.fetch_add(n, std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // EPIPE/ECONNRESET/...
    }
    conn.output.clear();
    conn.output_pos = 0;
    return true;
  }

  /// The per-connection pump: alternate parse/execute and flush until
  /// neither can progress, then recompute epoll interest. Returns false when
  /// the connection must be destroyed.
  bool ServiceConnection(Worker& worker, Connection& conn) {
    for (;;) {
      const size_t in_before = conn.input.size();
      const size_t out_before = conn.PendingOut();
      ParseAvailable(conn);
      if (!FlushOutput(conn)) return false;
      if (conn.close_after_flush && conn.PendingOut() == 0) return false;
      const bool progressed = conn.input.size() != in_before ||
                              (conn.PendingOut() < out_before &&
                               !conn.input.empty());
      if (!progressed) break;
    }
    if (conn.subscribe_from >= 0 && conn.PendingOut() == 0 &&
        !conn.close_after_flush) {
      // Every reply that preceded the Subscribe is on the wire: the
      // statement protocol is over for this socket. Hand it to the hub.
      HandoffToHub(worker, conn);
      return true;  // conn is gone; nothing further to service
    }
    UpdateInterest(worker, conn);
    return true;
  }

  /// Moves a subscribed connection (socket, governor charge, buffered
  /// input) out of the event loop and into the replication hub, which feeds
  /// it from a dedicated thread. Invalidates `conn`.
  void HandoffToHub(Worker& worker, Connection& conn) {
    const int fd = conn.fd.get();
    ::epoll_ctl(worker.epoll.get(), EPOLL_CTL_DEL, fd, nullptr);
    stats.active.fetch_sub(1, std::memory_order_relaxed);
    stats.repl_subscribes.fetch_add(1, std::memory_order_relaxed);
    const int64_t charge = conn.charge;
    const int64_t from = conn.subscribe_from;
    std::string pending = std::move(conn.input);
    const int raw = conn.fd.Release();
    worker.conns.erase(fd);
    // The charge transfers: the hub releases it when the subscriber dies.
    options.replication_hub->Adopt(raw, charge, from, std::move(pending));
  }

  void UpdateInterest(Worker& worker, Connection& conn) {
    const bool pause = conn.PendingOut() >= options.max_output_buffer ||
                       conn.input.size() >= input_cap ||
                       conn.close_after_flush;
    const bool want_write = conn.PendingOut() > 0;
    if (pause == conn.paused && want_write == conn.want_write) return;
    conn.paused = pause;
    conn.want_write = want_write;
    epoll_event ev{};
    ev.events = (pause ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = conn.fd.get();
    ::epoll_ctl(worker.epoll.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
  }

  void DestroyConnection(Worker& worker, int fd) {
    auto it = worker.conns.find(fd);
    if (it == worker.conns.end()) return;
    ::epoll_ctl(worker.epoll.get(), EPOLL_CTL_DEL, fd, nullptr);
    governor::Release(it->second.charge);
    stats.active.fetch_sub(1, std::memory_order_relaxed);
    worker.conns.erase(it);  // UniqueFd closes the socket
  }

  void OnReadable(Worker& worker, Connection& conn) {
    char buf[16384];
    const size_t room = input_cap > conn.input.size()
                            ? input_cap - conn.input.size()
                            : 0;
    if (room > 0) {
      const ssize_t n =
          ReadFd(conn.fd.get(), buf, std::min(sizeof(buf), room));
      if (n == 0) {
        // Peer closed. A half-received request simply evaporates: nothing
        // was executed, so no stats were recorded and no session state can
        // leak — the connection's buffers die with it.
        if (!conn.input.empty()) {
          stats.dropped_mid_request.fetch_add(1, std::memory_order_relaxed);
        }
        DestroyConnection(worker, conn.fd.get());
        return;
      }
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          if (!conn.input.empty()) {
            stats.dropped_mid_request.fetch_add(1, std::memory_order_relaxed);
          }
          DestroyConnection(worker, conn.fd.get());
          return;
        }
      } else {
        conn.input.append(buf, static_cast<size_t>(n));
        stats.bytes_in.fetch_add(n, std::memory_order_relaxed);
      }
    }
    if (!ServiceConnection(worker, conn)) {
      DestroyConnection(worker, conn.fd.get());
    }
  }

  void AdoptHandoffs(Worker& worker) {
    std::vector<Handoff> adopted;
    {
      std::lock_guard<std::mutex> lock(worker.inbox_mu);
      adopted.swap(worker.inbox);
    }
    for (const Handoff& handoff : adopted) {
      Connection conn;
      conn.fd = UniqueFd(handoff.fd);
      conn.charge = handoff.charge;
      conn.last_progress = SteadyClock::now();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = handoff.fd;
      if (::epoll_ctl(worker.epoll.get(), EPOLL_CTL_ADD, handoff.fd, &ev) !=
          0) {
        governor::Release(handoff.charge);
        stats.active.fetch_sub(1, std::memory_order_relaxed);
        continue;  // conn's UniqueFd closes the socket
      }
      worker.conns.emplace(handoff.fd, std::move(conn));
    }
  }

  void ScanSlowReaders(Worker& worker) {
    if (options.slow_reader_timeout_ms <= 0) return;
    const auto now = SteadyClock::now();
    std::vector<int> victims;
    for (auto& [fd, conn] : worker.conns) {
      if (conn.PendingOut() == 0) continue;
      const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
                               now - conn.last_progress)
                               .count();
      if (stalled >= options.slow_reader_timeout_ms) victims.push_back(fd);
    }
    for (int fd : victims) {
      Connection& conn = worker.conns.at(fd);
      // The queued replies are undeliverable — drop them and make one
      // attempt at a typed goodbye the client can read from the socket
      // buffer once it finally comes back.
      conn.output.clear();
      conn.output_pos = 0;
      const std::string bye = ErrResponse(
          "OVERLOADED", "slow reader: no reply drained for " +
                            std::to_string(options.slow_reader_timeout_ms) +
                            " ms; disconnecting");
      (void)!WriteFd(fd, bye.data(), bye.size());
      stats.slow_reader_disconnects.fetch_add(1, std::memory_order_relaxed);
      DestroyConnection(worker, fd);
    }
  }

  void WorkerLoop(size_t index) {
    Worker& worker = *workers[index];
    const bool is_acceptor = index == 0;
    std::array<epoll_event, 64> events;
    while (!stop.load(std::memory_order_acquire)) {
      int timeout_ms = -1;
      if (options.slow_reader_timeout_ms > 0) {
        for (const auto& [fd, conn] : worker.conns) {
          if (conn.PendingOut() > 0) {
            timeout_ms = static_cast<int>(std::clamp<int64_t>(
                options.slow_reader_timeout_ms / 4, 10, 250));
            break;
          }
        }
      }
      const int n = ::epoll_wait(worker.epoll.get(), events.data(),
                                 static_cast<int>(events.size()), timeout_ms);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const int fd = events[static_cast<size_t>(i)].data.fd;
        const uint32_t mask = events[static_cast<size_t>(i)].events;
        if (fd == worker.wake.get()) {
          uint64_t drain = 0;
          (void)!::read(worker.wake.get(), &drain, sizeof(drain));
          AdoptHandoffs(worker);
          continue;
        }
        if (is_acceptor && fd == listen_fd.get()) {
          AcceptReady();
          continue;
        }
        auto it = worker.conns.find(fd);
        if (it == worker.conns.end()) continue;
        Connection& conn = it->second;
        if (mask & (EPOLLHUP | EPOLLERR)) {
          if (!conn.input.empty()) {
            stats.dropped_mid_request.fetch_add(1, std::memory_order_relaxed);
          }
          DestroyConnection(worker, fd);
          continue;
        }
        if (mask & EPOLLOUT) {
          if (!ServiceConnection(worker, conn)) {
            DestroyConnection(worker, fd);
            continue;
          }
        }
        if ((mask & EPOLLIN) && worker.conns.count(fd) > 0) {
          OnReadable(worker, worker.conns.at(fd));
        }
      }
      ScanSlowReaders(worker);
    }
    // Shutdown: every surviving connection is torn down on its owner thread.
    while (!worker.conns.empty()) {
      DestroyConnection(worker, worker.conns.begin()->first);
    }
    AdoptStragglers(worker);
  }

  /// Connections handed off but never adopted before shutdown still hold a
  /// governor charge and an fd; release both.
  void AdoptStragglers(Worker& worker) {
    std::lock_guard<std::mutex> lock(worker.inbox_mu);
    for (const Handoff& handoff : worker.inbox) {
      ::close(handoff.fd);
      governor::Release(handoff.charge);
      stats.active.fetch_sub(1, std::memory_order_relaxed);
    }
    worker.inbox.clear();
  }

  void Shutdown() {
    std::call_once(shutdown_once, [this] {
      stop.store(true, std::memory_order_release);
      for (auto& worker : workers) WakeWorker(*worker);
      for (auto& worker : workers) {
        if (worker->thread.joinable()) worker->thread.join();
      }
      listen_fd.Reset();
    });
  }
};

TcpServer::TcpServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

TcpServer::~TcpServer() { Shutdown(); }

Result<std::unique_ptr<TcpServer>> TcpServer::Start(
    QueryEngine& engine, const ServerOptions& options) {
  if (options.threads < 1 || options.threads > 64) {
    return Status::InvalidArgument("server threads must be in [1, 64]");
  }
  if (options.max_connections < 1) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (options.max_line_bytes < 64 || options.max_frame_bytes < 64) {
    return Status::InvalidArgument("line/frame limits must be >= 64 bytes");
  }
  auto impl = std::make_unique<Impl>(engine);
  impl->options = options;
  // The input buffer must hold one maximal in-flight request of either form
  // (plus a read chunk of pipelined follow-ons); the admission charge covers
  // both bounded buffers, so an admitted connection can never grow past what
  // the governor already accounted.
  impl->input_cap = options.max_frame_bytes + kFrameOverheadBytes +
                    options.max_line_bytes + 16384;
  impl->conn_charge = static_cast<int64_t>(impl->input_cap) +
                      static_cast<int64_t>(options.max_output_buffer) + 65536;
  STREAMHIST_ASSIGN_OR_RETURN(impl->listen_fd,
                              ListenLoopback(options.port, options.backlog));
  STREAMHIST_ASSIGN_OR_RETURN(impl->port, LocalPort(impl->listen_fd.get()));

  for (int i = 0; i < options.threads; ++i) {
    auto worker = std::make_unique<Impl::Worker>();
    worker->epoll = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
    if (!worker->epoll.valid()) {
      return Status::IOError("epoll_create1 failed");
    }
    worker->wake = UniqueFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!worker->wake.valid()) return Status::IOError("eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake.get();
    if (::epoll_ctl(worker->epoll.get(), EPOLL_CTL_ADD, worker->wake.get(),
                    &ev) != 0) {
      return Status::IOError("epoll_ctl(wake) failed");
    }
    impl->workers.push_back(std::move(worker));
  }
  {
    Impl::Worker& acceptor = *impl->workers[0];
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = impl->listen_fd.get();
    if (::epoll_ctl(acceptor.epoll.get(), EPOLL_CTL_ADD,
                    impl->listen_fd.get(), &ev) != 0) {
      return Status::IOError("epoll_ctl(listen) failed");
    }
  }
  Impl* raw = impl.get();
  for (size_t i = 0; i < impl->workers.size(); ++i) {
    impl->workers[i]->thread = std::thread([raw, i] { raw->WorkerLoop(i); });
  }
  return std::unique_ptr<TcpServer>(new TcpServer(std::move(impl)));
}

uint16_t TcpServer::port() const { return impl_->port; }

void TcpServer::Shutdown() { impl_->Shutdown(); }

ServerStatsSnapshot TcpServer::stats() const {
  const Stats& s = impl_->stats;
  ServerStatsSnapshot snap;
  snap.accepted = s.accepted.load(std::memory_order_relaxed);
  snap.refused_over_cap = s.refused_over_cap.load(std::memory_order_relaxed);
  snap.refused_over_budget =
      s.refused_over_budget.load(std::memory_order_relaxed);
  snap.accept_faults = s.accept_faults.load(std::memory_order_relaxed);
  snap.active = s.active.load(std::memory_order_relaxed);
  snap.statements = s.statements.load(std::memory_order_relaxed);
  snap.statement_errors = s.statement_errors.load(std::memory_order_relaxed);
  snap.batch_frames = s.batch_frames.load(std::memory_order_relaxed);
  snap.batch_values = s.batch_values.load(std::memory_order_relaxed);
  snap.protocol_errors = s.protocol_errors.load(std::memory_order_relaxed);
  snap.slow_reader_disconnects =
      s.slow_reader_disconnects.load(std::memory_order_relaxed);
  snap.dropped_mid_request =
      s.dropped_mid_request.load(std::memory_order_relaxed);
  snap.repl_subscribes = s.repl_subscribes.load(std::memory_order_relaxed);
  snap.bytes_in = s.bytes_in.load(std::memory_order_relaxed);
  snap.bytes_out = s.bytes_out.load(std::memory_order_relaxed);
  return snap;
}

std::string TcpServer::SummaryLine() const {
  const ServerStatsSnapshot s = stats();
  std::ostringstream os;
  os << "serve: " << s.statements << " statements (" << s.statement_errors
     << " errors), " << s.batch_frames << " batch frames (" << s.batch_values
     << " values), " << s.accepted << " connections ("
     << s.refused_over_cap + s.refused_over_budget << " refused, "
     << s.slow_reader_disconnects << " slow-reader disconnects, "
     << s.protocol_errors << " protocol errors), " << s.bytes_in
     << " bytes in, " << s.bytes_out << " bytes out";
  return os.str();
}

}  // namespace net
}  // namespace streamhist
