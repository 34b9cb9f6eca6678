#include "src/runner/service.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "src/runner/checkpoint.h"

namespace specbench {

namespace {

// send() the whole buffer; MSG_NOSIGNAL so a vanished client surfaces as an
// error return instead of SIGPIPE killing the service.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Buffered newline-framed reader over a socket fd. Lines are capped at
// kMaxRequestLineBytes, so a peer that never sends '\n' cannot grow the
// buffer without bound.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Reads the next '\n'-terminated line (newline and any trailing '\r'
  // stripped). Returns false on EOF, a socket error or an over-long line;
  // too_long() tells the last apart.
  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t newline = buf_.find('\n');
      if ((newline == std::string::npos ? buf_.size() : newline) > kMaxRequestLineBytes) {
        too_long_ = true;
        return false;
      }
      if (newline != std::string::npos) {
        *line = buf_.substr(0, newline);
        buf_.erase(0, newline + 1);
        if (!line->empty() && line->back() == '\r') {
          line->pop_back();
        }
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  bool too_long() const { return too_long_; }

 private:
  int fd_;
  std::string buf_;
  bool too_long_ = false;
};

bool FillSockAddr(const std::string& path, sockaddr_un* addr, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    *error = "socket path must be 1.." + std::to_string(sizeof(addr->sun_path) - 1) +
             " bytes, got " + std::to_string(path.size());
    return false;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

SweepService::SweepService(ServiceOptions options, GridFactory factory)
    : options_(std::move(options)),
      factory_(std::move(factory)),
      pool_(options_.jobs <= 0 ? 0 : static_cast<size_t>(options_.jobs)) {}

SweepService::~SweepService() {
  RequestShutdown();
  WaitForConnections();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
}

bool SweepService::Start(std::string* error) {
  sockaddr_un addr;
  if (!FillSockAddr(options_.socket_path, &addr, error)) {
    return false;
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "bind " + options_.socket_path + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 16) != 0) {
    *error = "listen " + options_.socket_path + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return false;
  }
  return true;
}

void SweepService::Serve() {
  if (!options_.quiet) {
    std::fprintf(stderr, "serve: listening on %s (%zu workers)\n", options_.socket_path.c_str(),
                 pool_.thread_count());
  }
  while (!stop_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listen socket shut down (or unrecoverable) — stop accepting
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.insert(fd);
    // Detached, so a finished connection frees its thread at once; the
    // live-fd set is what Serve() and the destructor wait on.
    std::thread([this, fd] { HandleConnection(fd); }).detach();
  }
  WaitForConnections();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (!options_.quiet) {
    std::fprintf(stderr, "serve: shut down\n");
  }
}

void SweepService::RequestShutdown() {
  stop_.store(true);
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  }
  // Break every connection's recv() wait; in-flight batches still finish
  // (their replies go out — SHUT_RD leaves the send side open).
  for (int fd : conn_fds_) {
    ::shutdown(fd, SHUT_RD);
  }
}

void SweepService::HandleConnection(int fd) {
  LineReader reader(fd);
  std::string line;
  while (!stop_.load() && reader.ReadLine(&line)) {
    if (line.empty()) {
      continue;
    }
    if (!HandleRequestLine(fd, line)) {
      break;
    }
  }
  if (reader.too_long()) {
    SendAll(fd, "err request line too long\n");
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(fd);
  ::close(fd);
  conn_done_.notify_all();
}

void SweepService::WaitForConnections() {
  std::unique_lock<std::mutex> lock(conn_mu_);
  conn_done_.wait(lock, [this] { return conn_fds_.empty(); });
}

bool SweepService::HandleRequestLine(int fd, const std::string& line) {
  if (line == "ping") {
    return SendAll(fd, "pong\n");
  }
  if (line == "shutdown") {
    SendAll(fd, "bye\n");
    RequestShutdown();
    return false;
  }
  std::vector<std::string> args;
  size_t start = 0;
  for (size_t tab; (tab = line.find('\t', start)) != std::string::npos; start = tab + 1) {
    args.push_back(line.substr(start, tab - start));
  }
  args.push_back(line.substr(start));
  if (args.front() != "sweep") {
    return SendAll(fd, "err want ping, shutdown or a tab-separated sweep command line\n");
  }
  args.erase(args.begin());
  ServiceBatch batch;
  std::string error;
  if (!factory_(args, &batch, &error)) {
    return SendAll(fd, "err " + error + "\n");
  }
  const Sweep& sweep = batch.sweep;
  const size_t total = sweep.size();
  if (total == 0) {
    return SendAll(fd, "err request selects no cells\n");
  }
  const uint64_t grid_digest = sweep.GridDigest();
  const size_t selected = batch.shard.CellCount(total);
  if (!options_.quiet) {
    std::fprintf(stderr, "serve: sweep shard=%u/%u cells=%zu/%zu\n", batch.shard.index,
                 batch.shard.count, selected, total);
  }
  char ok[160];
  std::snprintf(ok, sizeof(ok), "ok cells=%zu base_seed=%llu grid=%016llx total=%zu\n", selected,
                static_cast<unsigned long long>(batch.base_seed),
                static_cast<unsigned long long>(grid_digest), total);
  if (!SendAll(fd, ok)) {
    return false;
  }
  // A send failure mid-batch (client gone) stops the streaming but not the
  // batch: cells already queued on the shared pool run to completion.
  std::atomic<bool> client_alive{true};
  RunnerOptions options;
  options.base_seed = batch.base_seed;
  options.pool = &pool_;
  const ShardSpec shard = batch.shard;
  options.should_run = [shard](size_t i) { return shard.Owns(i); };
  options.on_cell_done = [fd, &client_alive](size_t i, const SweepCellResult& cell) {
    if (!client_alive.load()) {
      return;
    }
    if (!SendAll(fd, SerializeCellRecord(i, cell) + "\n")) {
      client_alive.store(false);
    }
  };
  sweep.Run(options);
  if (!client_alive.load()) {
    return false;
  }
  return SendAll(fd, "done " + std::to_string(selected) + "\n");
}

bool SubmitRequestLine(const std::string& socket_path, const std::string& request_line,
                       std::string* ok_line, std::vector<std::string>* reply_lines,
                       std::string* error) {
  ok_line->clear();
  reply_lines->clear();
  sockaddr_un addr;
  if (!FillSockAddr(socket_path, &addr, error)) {
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect " + socket_path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  if (!SendAll(fd, request_line + "\n")) {
    *error = "send: " + std::string(std::strerror(errno));
    ::close(fd);
    return false;
  }
  LineReader reader(fd);
  std::string line;
  if (!reader.ReadLine(&line)) {
    *error = "connection closed before a reply";
    ::close(fd);
    return false;
  }
  if (line.rfind("err ", 0) == 0) {
    *error = line.substr(4);
    ::close(fd);
    return false;
  }
  *ok_line = line;
  if (line == "pong" || line == "bye") {
    ::close(fd);
    return true;
  }
  if (line.rfind("ok", 0) != 0) {
    *error = "unexpected reply \"" + line + "\"";
    ::close(fd);
    return false;
  }
  while (reader.ReadLine(&line)) {
    if (line.rfind("done", 0) == 0) {
      ::close(fd);
      return true;
    }
    reply_lines->push_back(line);
  }
  *error = "connection closed before \"done\"";
  ::close(fd);
  return false;
}

}  // namespace specbench
