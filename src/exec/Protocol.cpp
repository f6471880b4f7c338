//===- exec/Protocol.cpp ---------------------------------------------------===//

#include "exec/Protocol.h"

using namespace diffcode;
using namespace diffcode::exec;

std::string diffcode::exec::encodeHello(std::uint32_t BaseLabels,
                                        std::uint32_t BasePaths,
                                        std::uint64_t TraceEpochNs) {
  WireWriter W;
  W.u32(ProtocolVersion);
  W.u32(BaseLabels);
  W.u32(BasePaths);
  W.u64(TraceEpochNs);
  return encodeFrame(static_cast<std::uint32_t>(FrameType::Hello), W.bytes());
}

bool diffcode::exec::decodeHello(std::string_view Payload,
                                 std::uint32_t &BaseLabels,
                                 std::uint32_t &BasePaths,
                                 std::uint64_t &TraceEpochNs) {
  WireReader R(Payload);
  std::uint32_t Version = R.u32();
  BaseLabels = R.u32();
  BasePaths = R.u32();
  TraceEpochNs = R.u64();
  return R.atEnd() && Version == ProtocolVersion;
}

std::string diffcode::exec::encodeWork(const WorkUnit &Unit) {
  WireWriter W;
  W.u64(Unit.Id);
  W.u32(Unit.Attempt);
  W.u32(static_cast<std::uint32_t>(Unit.Indices.size()));
  for (std::uint64_t Index : Unit.Indices)
    W.u64(Index);
  return encodeFrame(static_cast<std::uint32_t>(FrameType::Work), W.bytes());
}

bool diffcode::exec::decodeWork(std::string_view Payload, WorkUnit &Out) {
  WireReader R(Payload);
  Out.Id = R.u64();
  Out.Attempt = R.u32();
  std::uint32_t Count = R.u32();
  Out.Indices.clear();
  for (std::uint32_t I = 0; I < Count && R.ok(); ++I)
    Out.Indices.push_back(R.u64());
  return R.atEnd() && Out.Indices.size() == Count;
}

std::string diffcode::exec::encodeUnitDone(std::uint64_t UnitId) {
  WireWriter W;
  W.u64(UnitId);
  return encodeFrame(static_cast<std::uint32_t>(FrameType::UnitDone),
                     W.bytes());
}

bool diffcode::exec::decodeUnitDone(std::string_view Payload,
                                    std::uint64_t &UnitId) {
  WireReader R(Payload);
  UnitId = R.u64();
  return R.atEnd();
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

static void writeTelemetryPayload(WireWriter &W, std::uint32_t Incarnation,
                                  const std::vector<obs::Tracer::Event> &Spans,
                                  const obs::Snapshot &Metrics) {
  W.clear();
  W.u32(Incarnation);
  W.u32(static_cast<std::uint32_t>(Spans.size()));
  for (const obs::Tracer::Event &E : Spans) {
    W.str(E.Name);
    W.u64(E.StartNs);
    W.u64(E.DurNs);
    W.u32(E.Tid);
  }
  W.u32(static_cast<std::uint32_t>(Metrics.Values.size()));
  for (const obs::MetricValue &V : Metrics.Values) {
    W.str(V.Name);
    W.u8(static_cast<std::uint8_t>(V.Kind));
    W.u8(static_cast<std::uint8_t>(V.U));
    W.u8(static_cast<std::uint8_t>(V.S));
    switch (V.Kind) {
    case obs::MetricKind::Counter:
      W.u64(V.Count);
      break;
    case obs::MetricKind::Gauge:
      W.u64(static_cast<std::uint64_t>(V.Value));
      break;
    case obs::MetricKind::Histogram:
      W.u64(V.Count);
      W.u64(V.Sum);
      W.u64(V.Min);
      W.u64(V.Max);
      W.u32(static_cast<std::uint32_t>(V.Buckets.size()));
      for (const auto &[Index, BucketCount] : V.Buckets) {
        W.u32(Index);
        W.u64(BucketCount);
      }
      break;
    }
  }
}

std::string
diffcode::exec::encodeTelemetry(std::uint32_t Incarnation,
                                const std::vector<obs::Tracer::Event> &Spans,
                                const obs::Snapshot &Metrics) {
  WireWriter W;
  writeTelemetryPayload(W, Incarnation, Spans, Metrics);
  return encodeFrame(static_cast<std::uint32_t>(FrameType::Telemetry),
                     W.bytes());
}

void diffcode::exec::appendTelemetry(
    std::string &Out, WireWriter &Scratch, std::uint32_t Incarnation,
    const std::vector<obs::Tracer::Event> &Spans,
    const obs::Snapshot &Metrics) {
  writeTelemetryPayload(Scratch, Incarnation, Spans, Metrics);
  appendFrame(Out, static_cast<std::uint32_t>(FrameType::Telemetry),
              Scratch.bytes());
}

bool diffcode::exec::decodeTelemetry(std::string_view Payload,
                                     TelemetryFrame &Out) {
  WireReader R(Payload);
  Out.Incarnation = R.u32();

  std::uint32_t SpanCount = R.u32();
  Out.Spans.clear();
  // No reserve from the wire-supplied count: a hostile length would
  // balloon memory before the truncation check ever runs.
  for (std::uint32_t I = 0; I < SpanCount && R.ok(); ++I) {
    TelemetrySpan S;
    S.Name = std::string(R.str());
    S.StartNs = R.u64();
    S.DurNs = R.u64();
    S.Tid = R.u32();
    Out.Spans.push_back(std::move(S));
  }
  if (!R.ok() || Out.Spans.size() != SpanCount)
    return false;

  std::uint32_t MetricCount = R.u32();
  Out.Metrics.Values.clear();
  for (std::uint32_t I = 0; I < MetricCount && R.ok(); ++I) {
    obs::MetricValue V;
    V.Name = std::string(R.str());
    std::uint8_t Kind = R.u8();
    std::uint8_t U = R.u8();
    std::uint8_t S = R.u8();
    if (!R.ok() || Kind > std::uint8_t(obs::MetricKind::Histogram) ||
        U > std::uint8_t(obs::Unit::Percent) ||
        S > std::uint8_t(obs::Stability::PerRun))
      return false;
    // Registry snapshots are strictly name-ordered; enforcing that here
    // keeps the Snapshot::merge precondition safe from hostile senders.
    if (!Out.Metrics.Values.empty() &&
        V.Name <= Out.Metrics.Values.back().Name)
      return false;
    V.Kind = static_cast<obs::MetricKind>(Kind);
    V.U = static_cast<obs::Unit>(U);
    V.S = static_cast<obs::Stability>(S);
    switch (V.Kind) {
    case obs::MetricKind::Counter:
      V.Count = R.u64();
      break;
    case obs::MetricKind::Gauge:
      V.Value = static_cast<std::int64_t>(R.u64());
      break;
    case obs::MetricKind::Histogram: {
      V.Count = R.u64();
      V.Sum = R.u64();
      V.Min = R.u64();
      V.Max = R.u64();
      std::uint32_t BucketCount = R.u32();
      for (std::uint32_t B = 0; B < BucketCount && R.ok(); ++B) {
        std::uint32_t Index = R.u32();
        std::uint64_t C = R.u64();
        if (Index >= obs::Histogram::NumBuckets ||
            (!V.Buckets.empty() && Index <= V.Buckets.back().first))
          return false;
        V.Buckets.emplace_back(Index, C);
      }
      if (!R.ok() || V.Buckets.size() != BucketCount)
        return false;
      break;
    }
    }
    Out.Metrics.Values.push_back(std::move(V));
  }
  return R.atEnd() && Out.Metrics.Values.size() == MetricCount;
}

//===----------------------------------------------------------------------===//
// Interner definition streaming
//===----------------------------------------------------------------------===//

static void appendLabelDef(std::string &Out, WireWriter &W,
                           std::uint32_t WorkerId,
                           const usage::NodeLabel &Label) {
  W.clear();
  W.u32(WorkerId);
  W.u8(static_cast<std::uint8_t>(Label.K));
  W.u32(Label.ArgIndex);
  W.u8(Label.ValueIsString ? 1 : 0);
  W.str(Label.Text);
  appendFrame(Out, static_cast<std::uint32_t>(FrameType::LabelDef), W.bytes());
}

static void appendPathDef(std::string &Out, WireWriter &W,
                          std::uint32_t WorkerId,
                          const std::vector<support::LabelId> &Labels) {
  W.clear();
  W.u32(WorkerId);
  W.u32(static_cast<std::uint32_t>(Labels.size()));
  for (support::LabelId Id : Labels)
    W.u32(Id);
  appendFrame(Out, static_cast<std::uint32_t>(FrameType::PathDef), W.bytes());
}

void DefSender::flush(std::string &Out) {
  WireWriter W;
  // Labels first: every path flushed below references only label ids
  // interned before the path itself (the interner is append-only and the
  // worker is single-threaded), so labelCount() at this instant covers
  // them all.
  std::size_t LabelHigh = Table.labelCount();
  for (; LabelsSent < LabelHigh; ++LabelsSent)
    appendLabelDef(Out, W, static_cast<std::uint32_t>(LabelsSent),
                   Table.labelAt(static_cast<support::LabelId>(LabelsSent)));
  std::size_t PathHigh = Table.pathCount();
  for (; PathsSent < PathHigh; ++PathsSent)
    appendPathDef(Out, W, static_cast<std::uint32_t>(PathsSent),
                  Table.labelsOf(static_cast<support::PathId>(PathsSent)));
}

bool IdRemap::applyLabelDef(std::string_view Payload,
                            support::Interner &Table) {
  WireReader R(Payload);
  std::uint32_t WorkerId = R.u32();
  std::uint8_t Kind = R.u8();
  std::uint32_t ArgIndex = R.u32();
  std::uint8_t IsString = R.u8();
  std::string_view Text = R.str();
  if (!R.atEnd() || Kind > static_cast<std::uint8_t>(usage::NodeLabel::Kind::Arg))
    return false;
  // Defs are dense above the inherited base and in worker intern order.
  if (WorkerId != BaseLabels + Labels.size())
    return false;
  usage::NodeLabel Label;
  Label.K = static_cast<usage::NodeLabel::Kind>(Kind);
  Label.ArgIndex = ArgIndex;
  Label.ValueIsString = IsString != 0;
  Label.Text.assign(Text);
  Labels.push_back(Table.label(Label));
  return true;
}

bool IdRemap::applyPathDef(std::string_view Payload,
                           support::Interner &Table) {
  WireReader R(Payload);
  std::uint32_t WorkerId = R.u32();
  std::uint32_t Count = R.u32();
  // No reserve from the wire-supplied count (see decodeTelemetry):
  // storage grows only with ids that decoded in full.
  std::vector<support::LabelId> Remapped;
  for (std::uint32_t I = 0; I < Count; ++I) {
    std::uint32_t Id = R.u32();
    support::LabelId Parent = 0;
    if (!R.ok() || !mapLabel(Id, Parent))
      return false;
    Remapped.push_back(Parent);
  }
  if (!R.atEnd() || WorkerId != BasePaths + Paths.size())
    return false;
  Paths.push_back(Table.path(std::move(Remapped)));
  return true;
}

//===----------------------------------------------------------------------===//
// ChangeRecord codec
//===----------------------------------------------------------------------===//

void diffcode::exec::appendResult(std::string &Out, WireWriter &Scratch,
                                  std::uint64_t ChangeIndex,
                                  const core::ChangeRecord &Record) {
  WireWriter &W = Scratch;
  W.clear();
  W.u64(ChangeIndex);
  W.str(Record.Origin);
  W.str(Record.GroundTruthKind);
  W.u8(static_cast<std::uint8_t>(Record.Status));
  W.str(Record.StatusDetail);
  W.u64(Record.StepsUsed);
  W.u32(static_cast<std::uint32_t>(Record.PerClass.size()));
  for (const auto &[Target, Changes] : Record.PerClass) {
    W.str(Target);
    W.u32(static_cast<std::uint32_t>(Changes.size()));
    for (const usage::UsageChange &Change : Changes) {
      W.str(Change.TypeName);
      W.str(Change.Origin);
      W.u32(static_cast<std::uint32_t>(Change.Removed.size()));
      for (support::PathId Id : Change.Removed)
        W.u32(Id);
      W.u32(static_cast<std::uint32_t>(Change.Added.size()));
      for (support::PathId Id : Change.Added)
        W.u32(Id);
    }
  }
  W.u32(static_cast<std::uint32_t>(Record.Classification.size()));
  for (const auto &[RuleId, Class] : Record.Classification) {
    W.str(RuleId);
    W.u8(static_cast<std::uint8_t>(Class));
  }
  appendFrame(Out, static_cast<std::uint32_t>(FrameType::Result), W.bytes());
}

std::string diffcode::exec::encodeResult(std::uint64_t ChangeIndex,
                                         const core::ChangeRecord &Record) {
  std::string Out;
  WireWriter Scratch;
  appendResult(Out, Scratch, ChangeIndex, Record);
  return Out;
}

static bool decodePathIds(WireReader &R, const IdRemap &Remap,
                          std::vector<support::PathId> &Out) {
  std::uint32_t Count = R.u32();
  Out.clear();
  for (std::uint32_t I = 0; I < Count; ++I) {
    std::uint32_t Id = R.u32();
    support::PathId Parent = 0;
    if (!R.ok() || !Remap.mapPath(Id, Parent))
      return false;
    Out.push_back(Parent);
  }
  return R.ok();
}

bool diffcode::exec::decodeResult(std::string_view Payload,
                                  const IdRemap &Remap,
                                  support::Interner &Table,
                                  std::uint64_t &ChangeIndex,
                                  core::ChangeRecord &Out) {
  WireReader R(Payload);
  ChangeIndex = R.u64();
  Out = core::ChangeRecord();
  Out.Origin.assign(R.str());
  Out.GroundTruthKind.assign(R.str());
  std::uint8_t Status = R.u8();
  if (Status >= core::NumChangeStatuses)
    return false;
  Out.Status = static_cast<core::ChangeStatus>(Status);
  Out.StatusDetail.assign(R.str());
  Out.StepsUsed = R.u64();
  std::uint32_t NumClasses = R.u32();
  for (std::uint32_t C = 0; C < NumClasses && R.ok(); ++C) {
    std::string Target(R.str());
    std::uint32_t NumChanges = R.u32();
    std::vector<usage::UsageChange> Changes;
    for (std::uint32_t I = 0; I < NumChanges && R.ok(); ++I) {
      usage::UsageChange Change;
      Change.TypeName.assign(R.str());
      Change.Origin.assign(R.str());
      Change.Table = &Table;
      if (!decodePathIds(R, Remap, Change.Removed) ||
          !decodePathIds(R, Remap, Change.Added))
        return false;
      Changes.push_back(std::move(Change));
    }
    if (Changes.size() != NumChanges)
      return false;
    Out.PerClass.emplace(std::move(Target), std::move(Changes));
  }
  if (!R.ok() || Out.PerClass.size() != NumClasses)
    return false;
  std::uint32_t NumRules = R.u32();
  for (std::uint32_t I = 0; I < NumRules && R.ok(); ++I) {
    std::string RuleId(R.str());
    std::uint8_t Class = R.u8();
    if (Class > static_cast<std::uint8_t>(rules::ChangeClass::NonSemantic))
      return false;
    Out.Classification.emplace(std::move(RuleId),
                               static_cast<rules::ChangeClass>(Class));
  }
  return R.atEnd() && Out.Classification.size() == NumRules;
}
