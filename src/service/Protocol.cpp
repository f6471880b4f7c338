//===- service/Protocol.cpp ------------------------------------------------===//

#include "service/Protocol.h"

#include "exec/Wire.h"

using namespace diffcode;
using namespace diffcode::service;

namespace {

bool fail(std::string *Error, const char *Message) {
  if (Error)
    *Error = Message;
  return false;
}

} // namespace

std::string service::encodeIngestRequest(
    const std::vector<corpus::CodeChange> &Changes) {
  exec::WireWriter W;
  W.u32(ServiceProtocolVersion);
  W.u32(static_cast<std::uint32_t>(Changes.size()));
  for (const corpus::CodeChange &C : Changes) {
    W.str(C.ProjectName);
    W.u32(C.CommitIndex);
    W.str(C.FileName);
    W.str(C.Kind);
    W.str(C.OldCode);
    W.str(C.NewCode);
  }
  return W.take();
}

bool service::decodeIngestRequest(std::string_view Payload,
                                  std::vector<corpus::CodeChange> &Out,
                                  std::string *Error) {
  exec::WireReader R(Payload);
  std::uint32_t Version = R.u32();
  if (R.ok() && Version != ServiceProtocolVersion)
    return fail(Error, "service protocol version mismatch");
  std::uint32_t Count = R.u32();
  Out.clear();
  // No reserve from the wire-supplied count: a hostile count would
  // balloon memory before the truncation check ever runs. Storage grows
  // only with elements that decoded in full.
  for (std::uint32_t I = 0; I < Count && R.ok(); ++I) {
    corpus::CodeChange C;
    C.ProjectName = std::string(R.str());
    C.CommitIndex = R.u32();
    C.FileName = std::string(R.str());
    C.Kind = std::string(R.str());
    C.OldCode = std::string(R.str());
    C.NewCode = std::string(R.str());
    if (R.ok())
      Out.push_back(std::move(C));
  }
  if (!R.atEnd())
    return fail(Error, "malformed ingest payload");
  return true;
}

std::string service::encodeIngestReply(const IngestReply &Reply) {
  exec::WireWriter W;
  W.u64(Reply.TotalChanges);
  W.u64(Reply.Stats.Ingested);
  W.u64(Reply.Stats.ClassesRepaired);
  W.u64(Reply.Stats.ClassesReused);
  return W.take();
}

bool service::decodeIngestReply(std::string_view Payload, IngestReply &Out) {
  exec::WireReader R(Payload);
  Out.TotalChanges = R.u64();
  Out.Stats.Ingested = R.u64();
  Out.Stats.ClassesRepaired = R.u64();
  Out.Stats.ClassesReused = R.u64();
  return R.atEnd();
}

std::string service::encodeQueryRequest(std::string_view What) {
  return encodeText(What);
}

bool service::decodeQueryRequest(std::string_view Payload, std::string &Out) {
  return decodeText(Payload, Out);
}

std::string service::encodeScanRequest(const ScanRequestWire &Request) {
  exec::WireWriter W;
  W.u32(ServiceProtocolVersion);
  W.u8(Request.Refine ? 1 : 0);
  W.u32(static_cast<std::uint32_t>(Request.RuleFilter.size()));
  for (const std::string &Id : Request.RuleFilter)
    W.str(Id);
  W.u32(static_cast<std::uint32_t>(Request.Projects.size()));
  for (const corpus::Project &P : Request.Projects) {
    W.str(P.Name);
    W.u8(P.Meta.IsAndroid ? 1 : 0);
    W.u32(static_cast<std::uint32_t>(P.Meta.MinSdkVersion));
    W.u8(P.Meta.HasLinuxPrngFix ? 1 : 0);
    W.u32(static_cast<std::uint32_t>(P.Files.size()));
    for (const corpus::ProjectFile &File : P.Files) {
      W.str(File.Name);
      W.str(File.Code);
    }
  }
  return W.take();
}

bool service::decodeScanRequest(std::string_view Payload, ScanRequestWire &Out,
                                std::string *Error) {
  exec::WireReader R(Payload);
  std::uint32_t Version = R.u32();
  if (R.ok() && Version != ServiceProtocolVersion)
    return fail(Error, "service protocol version mismatch");
  Out.Refine = (R.u8() & 1) != 0;
  // As in decodeIngestRequest: no reserve from a wire-supplied count.
  std::uint32_t RuleCount = R.u32();
  Out.RuleFilter.clear();
  for (std::uint32_t I = 0; I < RuleCount && R.ok(); ++I) {
    std::string_view Id = R.str();
    if (R.ok())
      Out.RuleFilter.emplace_back(Id);
  }
  std::uint32_t ProjectCount = R.u32();
  Out.Projects.clear();
  for (std::uint32_t I = 0; I < ProjectCount && R.ok(); ++I) {
    corpus::Project P;
    P.Name = std::string(R.str());
    P.Meta.IsAndroid = (R.u8() & 1) != 0;
    P.Meta.MinSdkVersion = static_cast<int>(R.u32());
    P.Meta.HasLinuxPrngFix = (R.u8() & 1) != 0;
    std::uint32_t FileCount = R.u32();
    for (std::uint32_t J = 0; J < FileCount && R.ok(); ++J) {
      corpus::ProjectFile File;
      File.Name = std::string(R.str());
      File.Code = std::string(R.str());
      if (R.ok())
        P.Files.push_back(std::move(File));
    }
    if (R.ok())
      Out.Projects.push_back(std::move(P));
  }
  if (!R.atEnd())
    return fail(Error, "malformed scan payload");
  return true;
}

std::string service::encodeText(std::string_view Text) {
  exec::WireWriter W;
  W.str(Text);
  return W.take();
}

bool service::decodeText(std::string_view Payload, std::string &Out) {
  exec::WireReader R(Payload);
  Out = std::string(R.str());
  return R.atEnd();
}
