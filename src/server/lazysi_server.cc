// lazysi_server: hosts one site of the lazy-master system as a standalone
// process — a primary (database + propagator + replication listener) or a
// secondary (database + refresh machinery + replication receiver). The
// client wire API is served on --client-port; a primary additionally streams
// propagation records on --repl-port; a secondary dials
// --primary-host:--primary-port.
//
//   lazysi_server --role=primary   [--client-port=N] [--repl-port=N]
//                 [--port-file=PATH] [--data-dir=PATH]
//                 [--fsync-mode=always|group|never] [--group-flush-us=N]
//                 [--checkpoint-interval-ms=N] [--max-batch-records=N]
//                 [--max-batch-bytes=N] [--batch-flush-ms=N] [--workers=N]
//   lazysi_server --role=secondary --primary-port=N [--primary-host=H]
//                 [--client-port=N] [--site-id=N] [--port-file=PATH]
//                 [--workers=N]
//
// The wire knobs tune the propagation stream a primary serves: the batch
// knobs bound how many records / bytes one BATCH frame coalesces and how
// long a partial batch may wait for more records. --workers sizes the
// client-request pool (all socket I/O runs on the site's single reactor
// thread regardless).
//
// --data-dir makes the primary durable: commits are written to a group-
// commit WAL under <dir>/wal and acked only once flushed (per --fsync-mode),
// periodic checkpoints truncate the log, and a restarted primary recovers
// every acked commit from the directory before accepting connections.
//
// Port 0 (the default) binds ephemerally; the actual ports are written to
// --port-file as "client_port repl_port\n" once the server is up, which is
// how run_cluster.sh and the multi-process tests discover them. The process
// runs until SIGTERM/SIGINT.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "system/site_server.h"

namespace {

using lazysi::system::SiteServer;

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --role=primary|secondary [--host=H] [--client-port=N]\n"
               "       [--repl-port=N] [--primary-host=H] [--primary-port=N]\n"
               "       [--site-id=N] [--port-file=PATH] [--data-dir=PATH]\n"
               "       [--fsync-mode=always|group|never] [--group-flush-us=N]\n"
               "       [--checkpoint-interval-ms=N] [--max-batch-records=N]\n"
               "       [--max-batch-bytes=N] [--batch-flush-ms=N]\n"
               "       [--max-output-bytes=N]\n"
               "       [--max-pending-requests=N] [--workers=N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  SiteServer::Options options;
  std::string role;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--role", &value)) {
      role = value;
    } else if (ParseFlag(argv[i], "--host", &value)) {
      options.host = value;
    } else if (ParseFlag(argv[i], "--client-port", &value)) {
      options.client_port = static_cast<std::uint16_t>(std::stoul(value));
    } else if (ParseFlag(argv[i], "--repl-port", &value)) {
      options.repl_port = static_cast<std::uint16_t>(std::stoul(value));
    } else if (ParseFlag(argv[i], "--primary-host", &value)) {
      options.primary_host = value;
    } else if (ParseFlag(argv[i], "--primary-port", &value)) {
      options.primary_repl_port =
          static_cast<std::uint16_t>(std::stoul(value));
    } else if (ParseFlag(argv[i], "--site-id", &value)) {
      options.site_id = static_cast<lazysi::SiteId>(std::stoul(value));
    } else if (ParseFlag(argv[i], "--port-file", &value)) {
      port_file = value;
    } else if (ParseFlag(argv[i], "--data-dir", &value)) {
      options.data_dir = value;
    } else if (ParseFlag(argv[i], "--fsync-mode", &value)) {
      options.fsync_mode = value;
    } else if (ParseFlag(argv[i], "--group-flush-us", &value)) {
      options.group_flush_interval =
          std::chrono::microseconds(std::stoul(value));
    } else if (ParseFlag(argv[i], "--checkpoint-interval-ms", &value)) {
      options.checkpoint_interval =
          std::chrono::milliseconds(std::stoul(value));
    } else if (ParseFlag(argv[i], "--max-batch-records", &value)) {
      options.max_batch_records = std::stoul(value);
    } else if (ParseFlag(argv[i], "--max-batch-bytes", &value)) {
      options.max_batch_bytes = std::stoul(value);
    } else if (ParseFlag(argv[i], "--batch-flush-ms", &value)) {
      options.batch_flush_interval =
          std::chrono::milliseconds(std::stoul(value));
    } else if (ParseFlag(argv[i], "--max-output-bytes", &value)) {
      options.max_output_bytes = std::stoul(value);
    } else if (ParseFlag(argv[i], "--max-pending-requests", &value)) {
      options.max_pending_requests = std::stoul(value);
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      options.worker_threads = std::stoul(value);
    } else {
      return Usage(argv[0]);
    }
  }

  if (role == "primary") {
    options.role = SiteServer::Role::kPrimary;
  } else if (role == "secondary") {
    options.role = SiteServer::Role::kSecondary;
    if (options.primary_repl_port == 0) {
      std::cerr << "secondary needs --primary-port\n";
      return 2;
    }
    if (options.site_id == lazysi::kPrimarySiteId) options.site_id = 1;
  } else {
    return Usage(argv[0]);
  }

  // Block the shutdown signals before any thread spawns, so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  SiteServer server(options);
  const lazysi::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "lazysi_server: " << started << "\n";
    return 1;
  }

  if (!port_file.empty()) {
    // Write to a temp name and rename: readers polling the file never see a
    // partial write.
    const std::string tmp = port_file + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
      std::fprintf(f, "%u %u\n", server.client_port(), server.repl_port());
      std::fclose(f);
      std::rename(tmp.c_str(), port_file.c_str());
    }
  }
  std::cerr << "lazysi_server: " << role << " up, client port "
            << server.client_port() << ", repl port " << server.repl_port()
            << " (pid " << ::getpid() << ")\n";

  int sig = 0;
  sigwait(&mask, &sig);
  std::cerr << "lazysi_server: signal " << sig << ", shutting down\n";
  server.Stop();
  return 0;
}
