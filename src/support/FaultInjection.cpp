//===- support/FaultInjection.cpp ------------------------------------------===//

#include "support/FaultInjection.h"

using namespace diffcode;
using namespace diffcode::support;

namespace {
thread_local FaultContext Current;
} // namespace

const char *diffcode::support::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::Parser:
    return "parser";
  case FaultSite::Interpreter:
    return "interpreter";
  case FaultSite::Hungarian:
    return "hungarian";
  case FaultSite::Clustering:
    return "clustering";
  case FaultSite::ScanProject:
    return "scan-project";
  case FaultSite::ProcKill:
    return "proc-kill";
  case FaultSite::ProcHang:
    return "proc-hang";
  case FaultSite::ProcSlowStart:
    return "proc-slow-start";
  case FaultSite::ProcFrameCorrupt:
    return "proc-frame-corrupt";
  case FaultSite::ProcOomExit:
    return "proc-oom";
  }
  return "unknown";
}

std::uint64_t diffcode::support::faultMix(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

FaultContext FaultContext::current() { return Current; }

FaultScope::FaultScope(const FaultPlan *Plan, std::uint64_t ScopeKey)
    : Saved(Current) {
  Current.Plan = Plan && Plan->enabled() ? Plan : nullptr;
  Current.ScopeKey = ScopeKey;
}

FaultScope::~FaultScope() { Current = Saved; }

bool diffcode::support::faultPoint(FaultSite Site, std::uint64_t Key) {
  const FaultPlan *Plan = Current.Plan;
  if (!Plan || !Plan->armed(Site))
    return false;
  // Three mixing rounds decorrelate the structured inputs; the top 53
  // bits become a uniform draw in [0, 1).
  std::uint64_t H = faultMix(Plan->Seed ^ faultMix(Current.ScopeKey));
  H = faultMix(H ^ (static_cast<std::uint64_t>(Site) << 56) ^ Key);
  bool Fires = static_cast<double>(H >> 11) * 0x1.0p-53 < Plan->Rate;
  if (FaultStats *Stats = Plan->Stats) {
    Stats->Evaluated[static_cast<unsigned>(Site)].fetch_add(
        1, std::memory_order_relaxed);
    if (Fires)
      Stats->Fired[static_cast<unsigned>(Site)].fetch_add(
          1, std::memory_order_relaxed);
  }
  return Fires;
}
