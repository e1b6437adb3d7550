#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// On a host with at least 4 allowed CPUs, keeps the first for the calling
/// process (the generator) and gives the rest to every server started
/// after it, so generator and server never compete for one CPU and every
/// run places them alike. Returns whether it split them.
bool SplitCpus();

/// One `streamhist_tool serve --listen 0` child process. The destructor
/// stops it (SIGTERM, then waits) so no server outlives the benchmark.
class ServerProcess {
 public:
  struct Options {
    std::string tool;     // path of streamhist_tool
    std::string workdir;  // stdout/stderr logs (and the WAL, if any) go here
    int threads = 2;
    std::string wal_dir;  // empty: no write-ahead log
  };

  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits (up to 30 s) for its LISTENING line.
  bool Start(const Options& options, std::string* error);
  /// SIGTERM and wait; true when it exited 0. Idempotent.
  bool Stop();

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// User plus system CPU of the whole process so far, in microseconds.
  double CpuMicros() const;
  /// Peak resident set (VmHWM) in KiB; 0 when unreadable.
  int64_t PeakRssKib() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  int exit_status_ = -1;
};

/// How long a client spins on its sockets before blocking. A reply that
/// wakes a sleeping client thread on a virtual CPU can wait milliseconds
/// for the wake-up; that wait is the client's, not the server's, and it
/// dominated the write-ack tail. Spinning this long covers every write and
/// fast read while costing a long (window-rebuilding) read only ~2% of a
/// core.
inline constexpr int64_t kSpinNs = 300000;

/// A parsed reply: "OK <k>" plus k payload lines joined by '\n', or
/// "ERR <CODE> <text>".
struct Reply {
  bool ok = false;
  std::string payload;  // payload lines (OK) or the whole ERR line
};

/// A blocking loopback connection speaking the statement protocol.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(uint16_t port, std::string* error);
  /// Writes the whole request; false when the connection is gone.
  bool Send(std::string_view bytes);
  /// Blocks for one complete reply; false on EOF / protocol damage.
  bool Receive(Reply* reply);
  /// Send + Receive.
  bool Call(std::string_view request, Reply* reply);

  /// Non-blocking half for poll loops: reads what the socket has and
  /// returns true once a whole reply is parsed into `reply`. `*dead` is set
  /// when the connection failed.
  bool TryReceive(Reply* reply, bool* dead);
  int fd() const { return fd_; }

 private:
  bool ParseBuffered(Reply* reply);

  int fd_ = -1;
  std::string in_;
  size_t in_pos_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
