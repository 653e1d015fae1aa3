// Standalone vecdb server: opens (or creates) a database directory and
// serves it over the wire protocol on loopback TCP. Pair with
// vecdb_shell --host.
//
// Usage: vecdb_server [data_dir [port]]
//   data_dir  defaults to /tmp/vecdb_server
//   port      defaults to 0 (ephemeral; the bound port is printed)
//
// The server runs until stdin reaches EOF (Ctrl-D) — convenient both
// interactively and under a test harness (`vecdb_server dir 0 < /dev/null`
// exits immediately after printing the port).
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "net/server.h"
#include "sql/database.h"

using namespace vecdb;

int main(int argc, char** argv) {
  const std::string data_dir = argc > 1 ? argv[1] : "/tmp/vecdb_server";
  net::ServerOptions server_options;
  if (argc > 2) server_options.listen_port = std::stoul(argv[2]);

  auto opened = sql::MiniDatabase::Open(data_dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open database: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<sql::MiniDatabase> db = std::move(opened).ValueOrDie();

  auto started = net::VecServer::Start(db.get(), server_options);
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::VecServer> server = std::move(started).ValueOrDie();
  std::printf("vecdb server — data dir %s, listening on 127.0.0.1:%u\n",
              data_dir.c_str(), server->port());
  std::printf("connect with: vecdb_shell --host 127.0.0.1 --port %u\n",
              server->port());
  std::printf("Ctrl-D stops the server.\n");
  std::fflush(stdout);

  // Park until EOF; the server's own threads do all the work.
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  std::printf("shutting down (%zu open connections)\n",
              server->connections());
  server->Stop();
  return 0;
}
