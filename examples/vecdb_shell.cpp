// Interactive SQL shell — a psql-flavored REPL for the paper's query
// interface. It runs statements in-process over MiniDatabase, or remotely
// against a running vecdb_server over VecClient. Reads one statement per
// line; meta-commands:
//   \q        quit
//   \timing   toggle per-statement timing
//   \help     list the supported SQL surface
//
// Usage: vecdb_shell [data_dir]             in-process (default
//                                           /tmp/vecdb_shell)
//        vecdb_shell --host H [--port P]    remote (default port 5433)
// In remote mode Ctrl-C cancels the statement in flight (out-of-band
// cancel frame) instead of killing the shell, exactly like psql.
// Also works non-interactively:  echo "CREATE TABLE ..." | vecdb_shell
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "core/vecdb.h"
#include "net/client.h"

using namespace vecdb;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void OnSigint(int) { g_interrupted = 1; }

void PrintHelp() {
  std::printf(
      "statements:\n"
      "  CREATE TABLE t (id int, vec float[8]);\n"
      "  INSERT INTO t VALUES (1, '0.1,0.2,...'), (2, '[0.3, 0.4, ...]');\n"
      "  CREATE INDEX i ON t USING {ivfflat|ivfpq|ivfsq8|hnsw} (vec)\n"
      "      WITH (clusters=256, m=16, bnn=16, efb=40, sample_ratio=0.01,\n"
      "            engine='pase'|'faiss'|'bridge');\n"
      "  SELECT id FROM t [WHERE ...] ORDER BY vec <-> '...' [OPTIONS\n"
      "      (nprobe=20, efs=200)] LIMIT 10;  (also <#> inner product,\n"
      "      <=> cosine)\n"
      "  EXPLAIN SELECT ...;\n"
      "  SET statement_timeout_ms = 500;   SET nprobe = 32;\n"
      "  CANCEL <session-id>;   SHOW SESSIONS;   SHOW METRICS;\n"
      "  DROP INDEX i; / DROP TABLE t;\n"
      "meta: \\q quit, \\timing toggle timing, \\help this text\n"
      "remote mode: Ctrl-C cancels the running statement without closing "
      "the connection.\n");
}

void PrintResult(const sql::QueryResult& result) {
  if (!result.message.empty()) std::printf("%s\n", result.message.c_str());
  if (result.rows.empty()) return;
  const bool with_distance = result.columns.size() == 2;
  if (with_distance) {
    std::printf("%-12s %-12s\n", "id", "distance");
  } else {
    std::printf("%-12s\n", "id");
  }
  for (const auto& row : result.rows) {
    if (with_distance) {
      std::printf("%-12lld %-12.4f\n", static_cast<long long>(row.id),
                  row.distance);
    } else {
      std::printf("%-12lld\n", static_cast<long long>(row.id));
    }
  }
  std::printf("(%zu rows)\n", result.rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir = "/tmp/vecdb_shell";
  std::string host;
  uint16_t port = 5433;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--host" || arg == "--port") && i + 1 < argc) {
      const std::string value = argv[++i];
      if (arg == "--host") {
        host = value;
      } else {
        port = static_cast<uint16_t>(std::stoul(value));
      }
    } else {
      data_dir = arg;
    }
  }

  // The one loop below drives either backend through `execute`.
  std::function<Result<sql::QueryResult>(const std::string&)> execute;
  std::unique_ptr<sql::MiniDatabase> db;
  std::shared_ptr<sql::Session> session;
  std::unique_ptr<net::VecClient> client;
  if (host.empty()) {
    auto opened = sql::MiniDatabase::Open(data_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open database: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened).ValueOrDie();
    session = db->CreateSession();
    execute = [&](const std::string& sql) { return session->Execute(sql); };
    std::printf("vecdb shell — data dir %s. Type \\help for syntax, \\q to "
                "quit.\n",
                data_dir.c_str());
  } else {
    auto connected = net::VecClient::Connect(host, port);
    if (!connected.ok()) {
      std::fprintf(stderr, "cannot connect to %s:%u: %s\n", host.c_str(),
                   port, connected.status().ToString().c_str());
      return 1;
    }
    client = std::move(connected).ValueOrDie();
    execute = [&](const std::string& sql) { return client->Execute(sql); };
    std::printf("connected to %s:%u as session %llu. \\help for syntax, \\q "
                "to quit.\n",
                host.c_str(), port,
                static_cast<unsigned long long>(client->session_id()));
  }

  // Remote Ctrl-C → out-of-band cancel frame. The handler only sets a
  // flag; a watcher thread does the actual (non-signal-safe) socket write.
  std::atomic<bool> shutdown{false};
  std::thread canceller;
  if (client != nullptr) {
    std::signal(SIGINT, OnSigint);
    canceller = std::thread([&] {
      while (!shutdown.load()) {
        if (g_interrupted) {
          g_interrupted = 0;
          std::printf("\ncancel requested\n");
          std::fflush(stdout);
          (void)client->Cancel();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }

  bool timing = false;
  std::string line;
  while (true) {
    std::printf("vecdb> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Trim whitespace.
    const auto begin = line.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r\n");
    line = line.substr(begin, end - begin + 1);

    if (line == "\\q" || line == "\\quit" || line == "exit") break;
    if (line == "\\help" || line == "help") {
      PrintHelp();
      continue;
    }
    if (line == "\\timing") {
      timing = !timing;
      std::printf("timing %s\n", timing ? "on" : "off");
      continue;
    }

    Timer timer;
    auto result = execute(line);
    const double millis = timer.ElapsedMillis();
    if (!result.ok()) {
      std::printf("ERROR: %s\n", result.status().ToString().c_str());
      // A remote IOError means the connection is gone.
      if (client != nullptr && result.status().IsIOError()) break;
      continue;
    }
    PrintResult(*result);
    if (timing) {
      std::printf("Time: %.3f ms%s\n", millis,
                  client != nullptr ? " (round trip)" : "");
    }
  }
  if (client != nullptr) {
    shutdown.store(true);
    canceller.join();
    client->Close();
  }
  std::printf("\nbye\n");
  return 0;
}
