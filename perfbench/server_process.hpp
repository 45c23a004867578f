#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// One `sieve_server --mode reactor` child process: the remote side of the
/// remote-filter phase. Spawned with its stdout/stderr sent to a log file
/// so the benchmark's own standard output stays machine-readable.
///
/// The constructor returns once the server has written its port file (the
/// server is accepting) and throws std::runtime_error if it exits or stays
/// silent for 10 s. stop() sends SIGTERM and waits for the exit, which is
/// when a traced server writes its APAR_TRACE_OUT dump; the destructor
/// calls it, so no server outlives its owner.
class ServerProcess {
 public:
  /// `trace_out` empty: the child runs with tracing and metrics forced off.
  /// Non-empty: the child records spans and dumps them to that path on
  /// stop().
  ServerProcess(const std::string& binary, const std::string& work_dir,
                int workers, const std::string& trace_out);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Peak resident set of the child in MiB (VmHWM). Sampled by stop(), so
  /// after stop() this is the child's final peak; 0 if never readable.
  [[nodiscard]] double peak_rss_mb();

  /// SIGKILL the child without waiting — fault injection for the
  /// benchmark's own tests (a server dying mid-run).
  void kill_now();

  /// SIGTERM, wait up to 10 s for the exit, then SIGKILL. Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double peak_rss_mb_ = 0.0;
};

/// VmHWM of a process (pid 0: this process) in MiB; 0 when unreadable.
double peak_rss_mb_of(pid_t pid);

}  // namespace perfbench
