#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

namespace perfbench {

ServerProcess::~ServerProcess() { Stop(); }

namespace {
bool g_split = false;
cpu_set_t g_server_cpus;
}  // namespace

bool SplitCpus() {
  cpu_set_t allowed, mine;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 4) {
    return false;
  }
  CPU_ZERO(&mine);
  CPU_ZERO(&g_server_cpus);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, CPU_COUNT(&mine) == 0 ? &mine : &g_server_cpus);
  }
  g_split = sched_setaffinity(0, sizeof(mine), &mine) == 0;
  return g_split;
}

bool ServerProcess::Start(const Options& options, std::string* error) {
  const std::string out_path = options.workdir + "/server.out";
  const std::string err_path = options.workdir + "/server.err";
  std::vector<std::string> args = {options.tool, "serve", "--listen", "0",
                                   "--threads", std::to_string(options.threads)};
  if (!options.wal_dir.empty()) {
    args.insert(args.end(), {"--wal-dir", options.wal_dir, "--wal-policy",
                             "always"});
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int out_fd = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int err_fd = open(err_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (out_fd < 0 || err_fd < 0) {
    *error = "cannot create server logs in " + options.workdir;
    if (out_fd >= 0) close(out_fd);
    if (err_fd >= 0) close(err_fd);
    return false;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (g_split) sched_setaffinity(0, sizeof(g_server_cpus), &g_server_cpus);
    dup2(out_fd, 1);
    dup2(err_fd, 2);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out_fd);
  close(err_fd);
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  pid_ = pid;
  exit_status_ = -1;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(out_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("LISTENING ", 0) == 0 && in.good()) {
        port_ = static_cast<uint16_t>(std::atoi(line.c_str() + 10));
        return true;
      }
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "server exited during start; see " + err_path;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "server did not announce its port within 30 s";
  Stop();
  return false;
}

bool ServerProcess::Stop() {
  if (pid_ > 0) {
    // SIGTERM asks for a clean shutdown (WAL flushed); a server that has
    // not exited 30 s later is killed, and the stop counts as unclean.
    kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    int status = 0;
    pid_t done = 0;
    while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (done == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      status = 0xff00;  // report as exit code 255
    }
    exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    pid_ = -1;
  }
  return exit_status_ == 0;
}

double ServerProcess::CpuMicros() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int64_t ServerProcess::PeakRssKib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::Connect(uint16_t port, std::string* error) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Connection::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool Connection::ParseBuffered(Reply* reply) {
  const size_t eol = in_.find('\n', in_pos_);
  if (eol == std::string::npos) return false;
  const std::string_view head(in_.data() + in_pos_, eol - in_pos_);
  if (head.rfind("OK ", 0) != 0) {
    // ERR line, or a reply this client cannot frame: either way one line.
    reply->ok = false;
    reply->payload.assign(head);
    in_pos_ = eol + 1;
  } else {
    const long k = std::atol(std::string(head.substr(3)).c_str());
    size_t end = eol + 1;
    for (long i = 0; i < k; ++i) {
      const size_t next = in_.find('\n', end);
      if (next == std::string::npos) return false;
      end = next + 1;
    }
    reply->ok = true;
    reply->payload.assign(in_, eol + 1, end - eol - 1);
    if (!reply->payload.empty()) reply->payload.pop_back();
    in_pos_ = end;
  }
  if (in_pos_ > (1u << 16)) {
    in_.erase(0, in_pos_);
    in_pos_ = 0;
  }
  return true;
}

bool Connection::Receive(Reply* reply) {
  char buf[16384];
  const auto spin_until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(kSpinNs);
  while (!ParseBuffered(reply)) {
    const bool spin = std::chrono::steady_clock::now() < spin_until;
    const ssize_t n = recv(fd_, buf, sizeof(buf), spin ? MSG_DONTWAIT : 0);
    if (n < 0 && (errno == EINTR || (spin && (errno == EAGAIN || errno == EWOULDBLOCK)))) {
      continue;
    }
    if (n <= 0) return false;
    in_.append(buf, static_cast<size_t>(n));
  }
  return true;
}

bool Connection::Call(std::string_view request, Reply* reply) {
  return Send(request) && Receive(reply);
}

bool Connection::TryReceive(Reply* reply, bool* dead) {
  char buf[16384];
  for (;;) {
    if (ParseBuffered(reply)) return true;
    const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    if (n <= 0) {
      *dead = true;
      return false;
    }
    in_.append(buf, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
