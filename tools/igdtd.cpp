//===- tools/igdtd.cpp - The campaign daemon -----------------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running campaign service: listens on a Unix-domain socket,
/// accepts api/Requests.h messages over the CRC-framed wire protocol,
/// runs campaigns on background sessions, and backs verdicts with a
/// content-addressed result store so repeat submissions only re-explore
/// what changed. Pair with igdt-client:
///
///   igdtd --socket /tmp/igdt.sock --store /tmp/igdt.store &
///   igdt-client --socket /tmp/igdt.sock submit --max-bytecodes 9
///
/// Exits 0 on a clean shutdown request, 1 when the socket cannot be
/// bound.
///
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"
#include "support/Flags.h"
#include "support/Socket.h"

#include <csignal>
#include <cstdio>

using namespace igdt;

namespace {

Daemon *ActiveDaemon = nullptr;

void onSignal(int) {
  if (ActiveDaemon)
    ActiveDaemon->stop();
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Opts;
  Opts.SocketPath = "/tmp/igdt.sock";
  bool MetricsAtExit = false;
  FlagParser Flags("igdtd", "IGDT campaign daemon");
  Flags.add("socket", &Opts.SocketPath, "unix-domain socket path to serve");
  Flags.add("store", &Opts.Service.StorePath,
            "default content-addressed verdict store (JSONL)");
  Flags.add("subscribe-wait-millis", &Opts.Service.SubscribeWaitMillis,
            "longest one subscribe long-poll blocks");
  Flags.add("metrics", &MetricsAtExit,
            "print the service metrics registry on exit");
  if (!Flags.parse(Argc, Argv))
    return Flags.helpRequested() ? 0 : 2;

  if (!unixSocketsAvailable()) {
    std::fprintf(stderr, "igdtd: unix sockets unavailable on this platform\n");
    return 1;
  }

  Daemon D(Opts);
  std::string Error;
  if (!D.start(&Error)) {
    std::fprintf(stderr, "igdtd: %s\n", Error.c_str());
    return 1;
  }
  ActiveDaemon = &D;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::printf("igdtd: serving on %s%s%s\n", Opts.SocketPath.c_str(),
              Opts.Service.StorePath.empty() ? "" : ", store ",
              Opts.Service.StorePath.c_str());
  std::fflush(stdout);
  D.run();
  ActiveDaemon = nullptr;
  if (MetricsAtExit)
    std::printf("%s", D.service().metrics().render().c_str());
  std::printf("igdtd: shut down\n");
  return 0;
}
