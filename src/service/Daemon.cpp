//===- service/Daemon.cpp - Unix-socket front-end for CampaignService --------===//

#include "service/Daemon.h"

#include "service/WireProtocol.h"
#include "support/Socket.h"

#include <utility>

using namespace igdt;

Daemon::Daemon(DaemonOptions OptsArg)
    : Opts(std::move(OptsArg)), Service(Opts.Service) {}

Daemon::~Daemon() {
  stop();
  for (Connection &C : Connections)
    if (C.Thread.joinable())
      C.Thread.join();
  closeFd(ListenFd);
}

bool Daemon::start(std::string *Error) {
  ListenFd = unixListen(Opts.SocketPath, Error);
  return ListenFd >= 0;
}

void Daemon::serveConnection(int Fd) {
  FrameDecoder Decoder;
  char Buf[4096];
  bool Alive = true;
  while (Alive && !Stopping.load()) {
    if (!waitReadable(Fd, int(Opts.PollMillis)))
      continue; // bounded wait: re-check the stop flag
    long N = readSome(Fd, Buf, sizeof(Buf));
    if (N <= 0)
      break; // EOF or error: client went away
    Decoder.feed(Buf, std::size_t(N));
    WireFrame Frame;
    FrameDecoder::Status S;
    while (Alive && (S = Decoder.next(Frame)) == FrameDecoder::Status::Frame) {
      if (Frame.Type != FrameType::Request) {
        // A client sending the daemon a reply frame is confused; drop
        // it rather than answer.
        Service.metrics().add("service.bad_frames");
        Alive = false;
        break;
      }
      std::string Reply = Service.handleJson(Frame.Payload);
      std::string Encoded = encodeFrame(FrameType::Reply, Reply);
      if (!writeAll(Fd, Encoded.data(), Encoded.size()))
        Alive = false;
    }
    if (S == FrameDecoder::Status::Corrupt) {
      Service.metrics().add("service.corrupt_streams");
      break;
    }
  }
  closeFd(Fd);
}

void Daemon::reapConnections() {
  for (auto It = Connections.begin(); It != Connections.end();) {
    if (!It->Done.load()) {
      ++It;
      continue;
    }
    It->Thread.join();
    It = Connections.erase(It);
  }
}

void Daemon::run() {
  while (!Stopping.load() && !Service.shutdownRequested()) {
    int Fd = unixAccept(ListenFd, int(Opts.PollMillis));
    if (Fd < 0)
      continue; // poll timeout (or transient accept failure): re-check stop
    Service.metrics().add("service.connections");
    reapConnections();
    Connection &C = Connections.emplace_back();
    C.Thread = std::thread([this, Fd, &C] {
      serveConnection(Fd);
      C.Done.store(true);
    });
    Unjoined.store(Connections.size());
  }
  Stopping.store(true); // release connection loops blocked mid-stream
  for (Connection &C : Connections)
    C.Thread.join();
  Connections.clear();
  Unjoined.store(0);
}
