#include "server_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

extern char** environ;

namespace perfbench {

namespace {

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

/// Reap `pid` if it has exited; true once it is gone.
bool reaped(pid_t pid) {
  int status = 0;
  const pid_t r = ::waitpid(pid, &status, WNOHANG);
  return r == pid || (r < 0 && errno == ECHILD);
}

}  // namespace

double peak_rss_mb_of(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& work_dir, int workers,
                             const std::string& trace_out) {
  static std::atomic<int> spawned{0};
  const std::string stem = work_dir + "/server-" + std::to_string(::getpid()) +
                           "-" + std::to_string(spawned.fetch_add(1));
  const std::string port_file = stem + ".port";
  const std::string log_file = stem + ".log";
  ::unlink(port_file.c_str());

  // The child's environment: ours minus every observability switch, plus
  // the trace switches when this server is the traced one.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (starts_with(*e, "APAR_TRACE") || starts_with(*e, "APAR_METRICS"))
      continue;
    env.emplace_back(*e);
  }
  if (!trace_out.empty()) {
    env.push_back("APAR_TRACE_OUT=" + trace_out);
    env.push_back("APAR_TRACE_CAP=4000000");
  }
  std::vector<char*> envp;
  for (auto& s : env) envp.push_back(s.data());
  envp.push_back(nullptr);

  std::vector<std::string> args = {binary,
                                   "--mode",
                                   "reactor",
                                   "--workers",
                                   std::to_string(workers),
                                   "--port-file",
                                   port_file,
                                   // Leak guard: the benchmark ends well
                                   // before this even if it is killed.
                                   "--run-seconds",
                                   "200"};
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + binary + ": " +
                             std::strerror(rc));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::ifstream in(port_file);
      unsigned port = 0;
      if (in >> port && port > 0 && port <= 65535) {
        port_ = static_cast<std::uint16_t>(port);
        ::unlink(port_file.c_str());
        return;
      }
    }
    if (reaped(pid_)) {
      pid_ = -1;
      throw std::runtime_error("sieve_server exited during start; see " +
                               log_file);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop();
  throw std::runtime_error("sieve_server did not report a port within 10 s");
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::peak_rss_mb() {
  if (pid_ > 0) peak_rss_mb_ = std::max(peak_rss_mb_, peak_rss_mb_of(pid_));
  return peak_rss_mb_;
}

void ServerProcess::kill_now() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  (void)peak_rss_mb();
  ::kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!reaped(pid_)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
}

}  // namespace perfbench
