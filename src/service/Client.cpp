//===- service/Client.cpp - Daemon client --------------------------------------===//

#include "service/Client.h"

#include "service/WireProtocol.h"
#include "support/Json.h"
#include "support/Socket.h"

using namespace igdt;

namespace {

void setError(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
}

} // namespace

bool ServiceClient::call(const ServiceRequest &Request, ServiceReply &Reply,
                         std::string *Error) {
  int Fd = unixConnect(SocketPath, Error);
  if (Fd < 0)
    return false;
  std::string Encoded = encodeFrame(FrameType::Request, Request.toJson().dump());
  if (!writeAll(Fd, Encoded.data(), Encoded.size())) {
    setError(Error, "send failed: " + SocketPath);
    closeFd(Fd);
    return false;
  }
  FrameDecoder Decoder;
  char Buf[4096];
  for (;;) {
    long N = readSome(Fd, Buf, sizeof(Buf));
    if (N <= 0) {
      setError(Error, "daemon closed the connection before replying");
      closeFd(Fd);
      return false;
    }
    Decoder.feed(Buf, std::size_t(N));
    WireFrame Frame;
    FrameDecoder::Status S = Decoder.next(Frame);
    if (S == FrameDecoder::Status::NeedMore)
      continue;
    closeFd(Fd);
    if (S == FrameDecoder::Status::Corrupt || Frame.Type != FrameType::Reply) {
      setError(Error, "corrupt reply stream from daemon");
      return false;
    }
    std::optional<JsonValue> V = JsonValue::parse(Frame.Payload);
    if (!V || !ServiceReply::fromJson(*V, Reply, Error)) {
      setError(Error, "malformed reply JSON from daemon");
      return false;
    }
    return true;
  }
}

bool ServiceClient::ping(std::string *Error) {
  ServiceRequest Request;
  Request.Verb = "ping";
  ServiceReply Reply;
  return call(Request, Reply, Error) && Reply.Ok;
}

bool ServiceClient::submit(const CampaignRequest &Campaign, bool WantProfile,
                           std::string &SessionId, std::string *Error) {
  ServiceRequest Request;
  Request.Verb = "submit";
  Request.Campaign = Campaign;
  Request.WantProfile = WantProfile;
  ServiceReply Reply;
  if (!call(Request, Reply, Error))
    return false;
  if (!Reply.Ok) {
    setError(Error, Reply.Error);
    return false;
  }
  std::optional<JsonValue> Body = JsonValue::parse(Reply.Body);
  if (!Body) {
    setError(Error, "malformed submit body");
    return false;
  }
  SessionId = Body->stringOr("session", "");
  return !SessionId.empty();
}

bool ServiceClient::status(const std::string &SessionId, StatusReply &Out,
                           std::string *Error) {
  ServiceRequest Request;
  Request.Verb = "status";
  Request.SessionId = SessionId;
  ServiceReply Reply;
  if (!call(Request, Reply, Error))
    return false;
  if (!Reply.Ok) {
    setError(Error, Reply.Error);
    return false;
  }
  std::optional<JsonValue> Body = JsonValue::parse(Reply.Body);
  return Body && StatusReply::fromJson(*Body, Out, Error);
}

bool ServiceClient::subscribe(const std::string &SessionId,
                              std::uint64_t &Cursor,
                              std::vector<std::string> &Events, bool &Done,
                              std::string *Error) {
  ServiceRequest Request;
  Request.Verb = "subscribe";
  Request.SessionId = SessionId;
  Request.Cursor = Cursor;
  ServiceReply Reply;
  if (!call(Request, Reply, Error))
    return false;
  if (!Reply.Ok) {
    setError(Error, Reply.Error);
    return false;
  }
  std::optional<JsonValue> Body = JsonValue::parse(Reply.Body);
  if (!Body) {
    setError(Error, "malformed subscribe body");
    return false;
  }
  if (const JsonValue *Batch = Body->find("events"))
    for (const JsonValue &Line : Batch->Arr)
      if (Line.K == JsonValue::Kind::String)
        Events.push_back(Line.Str);
  if (!Body->readUnsigned("next", Cursor)) {
    setError(Error, "malformed subscribe body: bad \"next\"");
    return false;
  }
  Done = Body->boolOr("done", false);
  return true;
}

bool ServiceClient::wait(const std::string &SessionId, StatusReply &Out,
                         std::string *Error) {
  // The daemon publishes a session's final status before it closes the
  // event stream, so one status call after the last long-poll sees it.
  std::uint64_t Cursor = 0;
  std::vector<std::string> Events;
  for (bool Done = false; !Done; Events.clear())
    if (!subscribe(SessionId, Cursor, Events, Done, Error))
      return false;
  return status(SessionId, Out, Error);
}

bool ServiceClient::invalidate(const std::string &StorePath,
                               const std::string &Instruction,
                               std::size_t &Removed, std::string *Error) {
  ServiceRequest Request;
  Request.Verb = "invalidate";
  Request.StorePath = StorePath;
  Request.Instruction = Instruction;
  ServiceReply Reply;
  if (!call(Request, Reply, Error))
    return false;
  if (!Reply.Ok) {
    setError(Error, Reply.Error);
    return false;
  }
  std::optional<JsonValue> Body = JsonValue::parse(Reply.Body);
  if (!Body) {
    setError(Error, "malformed invalidate body");
    return false;
  }
  Removed = 0;
  if (!Body->readUnsigned("removed", Removed)) {
    setError(Error, "malformed invalidate body: bad \"removed\"");
    return false;
  }
  return true;
}

bool ServiceClient::gc(const std::string &StorePath, std::size_t &Kept,
                       std::size_t &Dropped, std::string *Error) {
  ServiceRequest Request;
  Request.Verb = "gc";
  Request.StorePath = StorePath;
  ServiceReply Reply;
  if (!call(Request, Reply, Error))
    return false;
  if (!Reply.Ok) {
    setError(Error, Reply.Error);
    return false;
  }
  std::optional<JsonValue> Body = JsonValue::parse(Reply.Body);
  if (!Body) {
    setError(Error, "malformed gc body");
    return false;
  }
  Kept = Dropped = 0;
  if (!Body->readUnsigned("kept", Kept)) {
    setError(Error, "malformed gc body: bad \"kept\"");
    return false;
  }
  if (!Body->readUnsigned("dropped", Dropped)) {
    setError(Error, "malformed gc body: bad \"dropped\"");
    return false;
  }
  return true;
}

bool ServiceClient::shutdown(std::string *Error) {
  ServiceRequest Request;
  Request.Verb = "shutdown";
  ServiceReply Reply;
  return call(Request, Reply, Error) && Reply.Ok;
}
