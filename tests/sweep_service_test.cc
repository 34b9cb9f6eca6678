// End-to-end tests of the sweep service against the real spectrebench
// binary (SPECBENCH_CLI_PATH): SIGKILL a checkpointed sweep mid-grid and
// resume it, shard a grid across processes and merge, and drive the
// serve-mode Unix socket — in every case demanding output byte-identical to
// the uninterrupted one-shot `--jobs=1` run. The serve cases also hold the
// server to the CLI's error texts and to bounded memory per client.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/runner/checkpoint.h"
#include "src/runner/service.h"

namespace specbench {
namespace {

// Small but non-trivial slice of the difftest grid: 2 CPUs x 6 configs.
constexpr char kCpus[] = "Skylake Client,Zen 3";
constexpr char kSeeds[] = "0:12";
constexpr int kGridCells = 12;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "specbench_svc_" + name + "_" + std::to_string(::getpid());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct RunOutput {
  int exit_code = -1;
  std::string stdout_text;
};

// Runs the CLI through the shell, capturing stdout only (stderr carries
// progress/timing and is not part of the determinism contract).
RunOutput RunCli(const std::string& args) {
  const std::string command = std::string(SPECBENCH_CLI_PATH) + " " + args + " 2>/dev/null";
  RunOutput result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.stdout_text.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// fork+exec the CLI directly (no shell) so the test holds a real pid it can
// SIGKILL at an arbitrary instant.
pid_t SpawnCli(const std::vector<std::string>& args) {
  const pid_t pid = fork();
  if (pid != 0) {
    return pid;
  }
  std::vector<char*> argv;
  std::string binary = SPECBENCH_CLI_PATH;
  argv.push_back(binary.data());
  std::vector<std::string> owned = args;
  for (std::string& arg : owned) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  // Quiet child: progress isn't under test and interleaves with gtest output.
  if (::freopen("/dev/null", "w", stderr) == nullptr ||
      ::freopen("/dev/null", "w", stdout) == nullptr) {
    _exit(127);
  }
  ::execv(SPECBENCH_CLI_PATH, argv.data());
  _exit(127);
}

size_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
}

std::string BaselineArgs() {
  return std::string("sweep --grids=difftest --seeds=") + kSeeds + " --fast --quiet --jobs=1 " +
         "--cpus='" + kCpus + "'";
}

// The one-shot reference output every other path must reproduce exactly.
const std::string& BaselineJson() {
  static const std::string baseline = [] {
    const RunOutput run = RunCli(BaselineArgs());
    EXPECT_EQ(run.exit_code, 0);
    return run.stdout_text;
  }();
  return baseline;
}

TEST(SweepServiceCli, KillMidGridThenResumeIsByteIdentical) {
  const std::string journal = TempPath("kill_resume");
  const std::vector<std::string> args = {
      "sweep", "--grids=difftest", std::string("--seeds=") + kSeeds, "--fast", "--jobs=1",
      std::string("--cpus=") + kCpus, "--checkpoint=" + journal};
  const pid_t pid = SpawnCli(args);
  ASSERT_GT(pid, 0);

  // Wait for at least two durable records past the header, then SIGKILL —
  // mid-grid, possibly mid-append. The per-record fsync bounds the loss to
  // the torn tail.
  const size_t header_size = FileSize(journal);
  bool killed_mid_grid = false;
  for (int spin = 0; spin < 20000; spin++) {
    const std::string text = ReadFile(journal);
    size_t records = 0;
    for (char c : text) {
      records += c == '\n' ? 1 : 0;
    }
    if (records >= 3) {  // header + >= 2 cell records
      ASSERT_EQ(::kill(pid, SIGKILL), 0);
      killed_mid_grid = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  (void)header_size;
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // If the sweep finished before the kill landed the test would be vacuous —
  // the grid is big enough (and fsync slow enough) that this never happens
  // in practice; assert so a future grid shrink gets noticed.
  ASSERT_TRUE(killed_mid_grid) << "sweep finished before the kill; enlarge the grid";
  ASSERT_TRUE(WIFSIGNALED(status));

  // The journal must reload: complete records plus at most a torn tail.
  CheckpointData data;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(journal, &data, &error)) << error;
  EXPECT_EQ(data.header.total_cells, static_cast<uint64_t>(kGridCells));
  EXPECT_LT(data.cells.size(), static_cast<size_t>(kGridCells));
  EXPECT_GE(data.cells.size(), 2u);

  // Resume the killed run; its stdout must equal the uninterrupted one-shot.
  const RunOutput resumed =
      RunCli(BaselineArgs() + " --checkpoint=" + journal + " --resume");
  ASSERT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(resumed.stdout_text, BaselineJson());
  std::remove(journal.c_str());
}

TEST(SweepServiceCli, FourShardsMergeByteIdentical) {
  std::vector<std::string> journals;
  for (int i = 0; i < 4; i++) {
    journals.push_back(TempPath("shard" + std::to_string(i)));
    const RunOutput shard =
        RunCli(BaselineArgs() + " --shard=" + std::to_string(i) + "/4 --checkpoint=" +
               journals.back());
    ASSERT_EQ(shard.exit_code, 0);
    // A sharded run defers output to merge.
    EXPECT_EQ(shard.stdout_text, "");
  }
  std::string inputs = journals[0];
  for (size_t i = 1; i < journals.size(); i++) {
    inputs += "," + journals[i];
  }
  const RunOutput merged = RunCli("merge --inputs=" + inputs);
  ASSERT_EQ(merged.exit_code, 0);
  EXPECT_EQ(merged.stdout_text, BaselineJson());

  // CSV emitter too, and incomplete merges must fail loudly.
  const RunOutput csv = RunCli("merge --csv --inputs=" + inputs);
  ASSERT_EQ(csv.exit_code, 0);
  EXPECT_EQ(csv.stdout_text, RunCli(BaselineArgs() + " --csv").stdout_text);
  const RunOutput incomplete = RunCli("merge --inputs=" + journals[0] + "," + journals[1]);
  EXPECT_EQ(incomplete.exit_code, 1);
  for (const std::string& journal : journals) {
    std::remove(journal.c_str());
  }
}

TEST(SweepServiceCli, ShardWithoutCheckpointIsRejected) {
  const RunOutput run = RunCli("sweep --grids=difftest --shard=0/2");
  EXPECT_EQ(run.exit_code, 2);
  const RunOutput resume = RunCli("sweep --grids=difftest --resume");
  EXPECT_EQ(resume.exit_code, 2);
}

// A real `serve` process on its own socket. The destructor kills a server
// that a failed assertion left running.
struct ServerProcess {
  explicit ServerProcess(const std::string& name) : socket_path(TempPath(name)) {
    pid = SpawnCli({"serve", "--socket=" + socket_path, "--jobs=2", "--quiet"});
  }
  ~ServerProcess() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  // Waits until the server answers a ping.
  bool WaitUntilUp() {
    for (int attempt = 0; attempt < 100; attempt++) {
      if (Request("ping") == "pong") {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  // Sends one request line: the first reply line, or "err <reason>".
  std::string Request(const std::string& line) {
    std::string ok_line;
    std::vector<std::string> reply;
    std::string error;
    return SubmitRequestLine(socket_path, line, &ok_line, &reply, &error) ? ok_line
                                                                           : "err " + error;
  }

  // Graceful shutdown: "bye", then the server process exits cleanly.
  void Stop() {
    EXPECT_EQ(Request("shutdown"), "bye");
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    pid = -1;
  }

  std::string socket_path;
  pid_t pid = -1;
};

// The serve request for shard `shard` of 2 of the baseline grid.
std::string ShardRequest(uint32_t shard) {
  return std::string("sweep\t--grids=difftest\t--cpus=") + kCpus + "\t--seeds=" + kSeeds +
         "\t--fast\t--shard=" + std::to_string(shard) + "/2";
}

// Serve mode: a real server process, two client batches over the socket,
// journals assembled from the streamed records, merged, byte-compared.
TEST(SweepServiceCli, ServeShardsMergeByteIdentical) {
  ServerProcess server("sock");
  ASSERT_GT(server.pid, 0);
  ASSERT_TRUE(server.WaitUntilUp());

  // Two shard batches on separate connections, multiplexed onto the
  // server's shared pool.
  std::string ok_line;
  std::vector<std::string> reply;
  std::string error;
  std::vector<std::string> journals;
  for (uint32_t shard = 0; shard < 2; shard++) {
    ASSERT_TRUE(
        SubmitRequestLine(server.socket_path, ShardRequest(shard), &ok_line, &reply, &error))
        << error;
    unsigned long long cells = 0, base_seed = 0, grid = 0, total = 0;
    ASSERT_EQ(std::sscanf(ok_line.c_str(), "ok cells=%llu base_seed=%llu grid=%16llx total=%llu",
                          &cells, &base_seed, &grid, &total),
              4)
        << ok_line;
    EXPECT_EQ(total, static_cast<unsigned long long>(kGridCells));
    EXPECT_EQ(reply.size(), static_cast<size_t>(cells));

    // The streamed records + the ok-line header form a valid journal.
    const std::string journal_path = TempPath("svc_shard" + std::to_string(shard));
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out << SerializeJournalHeader(JournalHeader{base_seed, grid, total}) << "\n";
    for (const std::string& line : reply) {
      out << line << "\n";
    }
    out.close();
    journals.push_back(journal_path);
  }

  // Malformed requests answer "err ..." without killing the connection pool.
  const std::string bogus_grid = server.Request("sweep\t--grids=bogus");
  EXPECT_EQ(bogus_grid.rfind("err ", 0), 0u) << bogus_grid;
  EXPECT_NE(bogus_grid.find("unknown grid"), std::string::npos) << bogus_grid;
  EXPECT_EQ(server.Request("sweep\t--shard=9/2").rfind("err ", 0), 0u);

  SweepResult merged;
  ASSERT_TRUE(MergeCheckpoints(journals, &merged, &error)) << error;
  EXPECT_EQ(merged.ToJson(), BaselineJson());

  server.Stop();
  for (const std::string& journal : journals) {
    std::remove(journal.c_str());
  }
}

// A request line is parsed by the CLI's own flag parser, so a bad flag
// answers with the text `spectrebench sweep` prints for it.
TEST(SweepServiceCli, ServeAnswersBadRequestsWithCliErrors) {
  ServerProcess server("sock_errors");
  ASSERT_GT(server.pid, 0);
  ASSERT_TRUE(server.WaitUntilUp());

  EXPECT_EQ(server.Request("sweep\t--seeds=5:2"),
            "err --seeds=5:2: empty range (B must be greater than A)");
  EXPECT_EQ(server.Request("sweep\t--jobs=4"),
            "err spectrebench serve request: unrecognized option '--jobs' (valid options: "
            "--grids --seeds --cpus --workloads --configs --seed --fast --shard)");
  EXPECT_EQ(server.Request("sweep\t--cpus=Bogus").rfind(
                "err --cpus=Bogus: unknown CPU model \"Bogus\" (valid names: ", 0),
            0u);
  // The key=value grammar of earlier versions is an error, not a crash.
  const std::string old_form = server.Request("sweep grids=difftest");
  EXPECT_EQ(old_form.rfind("err ", 0), 0u) << old_form;
  EXPECT_EQ(server.Request("ping"), "pong");

  server.Stop();
}

int ConnectTo(const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", socket_path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// A client that never sends a newline gets an error and a closed
// connection, not a server buffering without bound.
TEST(SweepServiceCli, ServeRejectsOverlongRequestLine) {
  ServerProcess server("sock_long");
  ASSERT_GT(server.pid, 0);
  ASSERT_TRUE(server.WaitUntilUp());

  const int fd = ConnectTo(server.socket_path);
  ASSERT_GE(fd, 0);
  // Time out rather than hang if the server keeps reading and never replies.
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout)), 0);
  const std::string line(2 * kMaxRequestLineBytes, 'x');
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;  // the server closed its end mid-line
    }
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
    reply.push_back(c);
  }
  ::close(fd);
  EXPECT_EQ(reply, "err request line too long");
  EXPECT_EQ(server.Request("ping"), "pong");

  server.Stop();
}

// Virtual memory of `pid` in KiB, from /proc/<pid>/status.
long VmSizeKib(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stol(line.substr(7));
    }
  }
  return -1;
}

// Finished connection threads are released as they end: each one would
// otherwise keep its stack mapped until shutdown.
TEST(SweepServiceCli, ServeReleasesFinishedConnections) {
  ServerProcess server("sock_reap");
  ASSERT_GT(server.pid, 0);
  ASSERT_TRUE(server.WaitUntilUp());

  const long before = VmSizeKib(server.pid);
  ASSERT_GT(before, 0);
  for (int i = 0; i < 300; i++) {
    ASSERT_EQ(server.Request("ping"), "pong");
  }
  const long after = VmSizeKib(server.pid);
  EXPECT_LT(after - before, 256L * 1024) << "VmSize " << before << " KiB -> " << after << " KiB";

  server.Stop();
}

}  // namespace
}  // namespace specbench
