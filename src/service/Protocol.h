//===- service/Protocol.h - diffcoded request/reply codecs -----------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message layer of service mode, built on the same checksummed
/// exec/Wire framing the supervised engine uses (magic, type, length,
/// FNV-1a checksum — one corrupt byte flips the decoder into its sticky
/// error state and the connection is dropped, never resynchronized).
///
/// Client -> server:
///   IngestReq    protocol version + a batch of code changes
///   QueryReq     a stats question ("health" | "stats" | "class:<Name>")
///   SnapshotReq  ask for the full corpus report JSON
///   ShutdownReq  stop the server after acknowledging
///   ScanReq      rule-scan a batch of projects (scan/Scanner); the warm
///                session answers rule queries without respawning
///   StatsReq     the daemon's live observability summary (metrics
///                snapshot + stage table) — read-only, never touches
///                the session state
///
/// Server -> client (exactly one per request, in request order):
///   ReplyOk      payload depends on the request (see codecs below)
///   ReplyErr     length-prefixed human-readable error
///
/// Service frame types live in a disjoint range (0x100+) from the
/// exec worker protocol's 1..7, so a frame mis-routed between the two
/// protocols is rejected by type, not misparsed.
///
/// Every decoder is defensive: truncation, trailing bytes, or an element
/// count the payload cannot back returns false and the server answers
/// ReplyErr (or the client treats the server as poisoned). No decoder
/// reserves storage from a count read off the wire; vectors grow only
/// with elements that decoded in full.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SERVICE_PROTOCOL_H
#define DIFFCODE_SERVICE_PROTOCOL_H

#include "corpus/RepoModel.h"
#include "service/AnalysisSession.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace diffcode {
namespace service {

/// Service frame types (exec/Wire frame header's `type` field).
enum class ServiceFrame : std::uint32_t {
  IngestReq = 0x101,
  QueryReq = 0x102,
  SnapshotReq = 0x103,
  ShutdownReq = 0x104,
  ScanReq = 0x105,
  StatsReq = 0x106,
  ReplyOk = 0x110,
  ReplyErr = 0x111,
};

/// Bumped whenever any payload layout changes; IngestReq carries it and
/// the server refuses a mismatched client with ReplyErr.
inline constexpr std::uint32_t ServiceProtocolVersion = 3;

/// What an acknowledged ingest reports back: the session high-water mark
/// plus that ingest's IngestStats (CacheHits, PairsComputed and
/// PairsReused are not carried).
struct IngestReply {
  std::uint64_t TotalChanges = 0;
  IngestStats Stats;
};

/// IngestReq payload: u32 version, u32 count, then per change
/// (project, commitIndex, file, kind, old code, new code) with
/// length-prefixed strings.
std::string encodeIngestRequest(const std::vector<corpus::CodeChange> &Changes);
bool decodeIngestRequest(std::string_view Payload,
                         std::vector<corpus::CodeChange> &Out,
                         std::string *Error = nullptr);

/// ReplyOk payload for IngestReq: four u64s (total changes, ingested,
/// classes repaired, classes reused). Version 2's six-u64 reply, which
/// also carried two pair counts, fails on its trailing bytes.
std::string encodeIngestReply(const IngestReply &Reply);
bool decodeIngestReply(std::string_view Payload, IngestReply &Out);

/// QueryReq payload: one length-prefixed question string. The ReplyOk
/// payload is one length-prefixed answer (JSON).
std::string encodeQueryRequest(std::string_view What);
bool decodeQueryRequest(std::string_view Payload, std::string &Out);

/// ReplyOk payload for QueryReq/SnapshotReq, and the ReplyErr payload:
/// one length-prefixed string.
std::string encodeText(std::string_view Text);
bool decodeText(std::string_view Payload, std::string &Out);

/// A scan request on the wire: the project set is self-contained (name,
/// metadata, HEAD files) so the server needs no shared filesystem.
struct ScanRequestWire {
  bool Refine = false;
  std::vector<std::string> RuleFilter; ///< Empty = the server's full set.
  std::vector<corpus::Project> Projects; ///< History is not carried.
};

/// ScanReq payload: u32 version, u8 flags (bit 0 = refine), u32 rule-id
/// count + ids, u32 project count, then per project (name, u8 isAndroid,
/// u32 minSdk, u8 hasLprngFix, u32 file count, per file name + code).
/// The ReplyOk payload is one length-prefixed scan report JSON
/// (scan/ScanReportWriter.h shape). Carried under the same protocol
/// version: an additive frame type, no existing payload changed.
std::string encodeScanRequest(const ScanRequestWire &Request);
bool decodeScanRequest(std::string_view Payload, ScanRequestWire &Out,
                       std::string *Error = nullptr);

/// StatsReq carries no payload (an empty frame; trailing bytes are a
/// protocol error like everywhere else). The ReplyOk payload is one
/// length-prefixed JSON string: the daemon observer's RunSummary
/// ({"counters":[...],"stages":[...]}), or ReplyErr when the daemon was
/// started unobserved. Additive frame type under the same protocol
/// version — no existing payload changed.

} // namespace service
} // namespace diffcode

#endif // DIFFCODE_SERVICE_PROTOCOL_H
