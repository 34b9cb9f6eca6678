// Sweep-as-a-service: a request queue over a Unix-domain socket.
//
// `spectrebench serve --socket=PATH` turns the one-shot sweep CLI into a
// long-running service: clients connect, submit sweep-cell batches as
// single-line requests, and stream back one journal-compatible record per
// completed cell. All batches from all clients multiplex onto ONE shared
// thread pool (the PR-2 deterministic runner), so a small batch submitted
// while a large one is in flight starts immediately — the pool's workers
// drain whichever batch has cells queued, work-sharing across requests.
//
// Wire protocol (line-delimited UTF-8; one request line, streamed reply):
//
//   -> ping
//   <- pong
//
//   -> sweep<TAB>--grids=difftest<TAB>--cpus=Skylake Client,Zen 3
//            <TAB>--seeds=0:50<TAB>--fast<TAB>--shard=0/2
//   <- ok cells=<selected> base_seed=<u64> grid=<hex16> total=<u64>
//   <- cell <checksum> <payload>        (one per completed cell,
//                                        completion order)
//   <- done <selected>
//
//   -> shutdown
//   <- bye                              (server stops accepting and exits
//                                        once in-flight batches finish)
//
//   <- err <reason>                     (any malformed or unsatisfiable
//                                        request; one line)
//
// A sweep request is a `spectrebench sweep` command line with its
// arguments separated by tabs instead of shell words, so values keep their
// spaces without quoting. The service splits the line and hands the
// arguments to the GridFactory the CLI injects; the CLI parses them with
// its own flag parser, so a request accepts exactly the cell-selecting
// sweep flags and a bad one answers with the text the CLI would print. A
// line longer than kMaxRequestLineBytes answers "err request line too
// long" and closes the connection.
//
// The `cell` lines are exactly the checkpoint journal records of
// src/runner/checkpoint.h, and the `ok` line carries the journal header
// fields — so a client that writes the header plus the received records to
// a file has a valid journal that `spectrebench merge` accepts. Cell
// *content* is deterministic (same seeds, same bytes, per the cross-process
// determinism contract); only the arrival order varies.
//
// The service knows no flag and no grid, which keeps src/runner free of
// src/core dependencies.
#ifndef SPECTREBENCH_SRC_RUNNER_SERVICE_H_
#define SPECTREBENCH_SRC_RUNNER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/runner/shard.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"

namespace specbench {

// The longest line either side of the socket reads.
constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

// What one sweep request runs: the grid, the base seed of its journal
// header and the slice of cells to execute.
struct ServiceBatch {
  Sweep sweep;
  uint64_t base_seed = 1;
  ShardSpec shard;
};

// Maps a request's arguments (the tab-separated fields after "sweep") onto
// a batch. Returns false with a one-line reason.
using GridFactory =
    std::function<bool(const std::vector<std::string>& args, ServiceBatch*, std::string*)>;

struct ServiceOptions {
  std::string socket_path;
  int jobs = 0;  // shared pool size; <= 0 = hardware_concurrency
  bool quiet = false;
};

class SweepService {
 public:
  SweepService(ServiceOptions options, GridFactory factory);
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  // Binds and listens on the socket (unlinking any stale one). Returns
  // false with a reason on failure.
  bool Start(std::string* error);
  // Accept loop: serves until a client sends "shutdown". Returns once
  // every connection, and so every in-flight batch, has finished.
  void Serve();
  // Asks the accept loop to stop (what the "shutdown" command calls).
  void RequestShutdown();

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  void HandleConnection(int fd);
  void WaitForConnections();
  bool HandleRequestLine(int fd, const std::string& line);

  ServiceOptions options_;
  GridFactory factory_;
  ThreadPool pool_;  // shared by every client batch
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex conn_mu_;
  std::condition_variable conn_done_;  // signalled as each connection ends
  std::set<int> conn_fds_;             // live connections
};

// Client helper: connects to `socket_path`, sends one request line, and
// collects the reply. On success `reply_lines` holds everything between
// (and excluding) the "ok ..." line — returned in `ok_line` — and the
// terminating "done" line. Used by `spectrebench submit` and the tests.
bool SubmitRequestLine(const std::string& socket_path, const std::string& request_line,
                       std::string* ok_line, std::vector<std::string>* reply_lines,
                       std::string* error);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_RUNNER_SERVICE_H_
