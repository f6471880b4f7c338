//===- analysis/AbstractInterpreter.h - Forward AST abstract interpreter ---===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lightweight AST-based program analyzer of Section 5.1. Given a
/// (partial) compilation unit it:
///
///   1. finds all allocation sites of API classes,
///   2. discovers entry methods (methods with no in-unit callers),
///   3. performs a forward abstract execution of each entry, forking at
///      every branch point, tracking abstract values of locals and fields,
///   4. records, per execution, the abstract usages AUses(o) of every
///      abstract object: its creating constructor/factory call and every
///      API call that receives it.
///
/// Design choices the paper leaves open (documented in DESIGN.md): loops
/// run 0 or 1 abstract iterations; calls inlined into an expression do not
/// fork — their internal branches join; fork counts and inline depth are
/// capped so adversarial inputs stay near-linear.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_ANALYSIS_ABSTRACTINTERPRETER_H
#define DIFFCODE_ANALYSIS_ABSTRACTINTERPRETER_H

#include "analysis/AbstractObject.h"
#include "analysis/UsageEvent.h"
#include "apimodel/CryptoApiModel.h"
#include "javaast/Ast.h"

#include <cstdint>
#include <vector>

namespace diffcode {
namespace analysis {

/// Knobs for the interpreter; the ablation benchmarks sweep Abstraction.
struct AnalysisOptions {
  /// Granularity of the base-type abstraction (Figure 3 is Paper).
  enum class BaseAbstraction {
    Paper,            ///< Figure 3: ints/strings kept, bytes collapsed.
    KeepAllConstants, ///< Finer: byte arrays also keep their elements.
    AllTop,           ///< Coarser: every base value abstracts to top.
  };
  BaseAbstraction Abstraction = BaseAbstraction::Paper;

  /// Cap on forked executions per entry method.
  unsigned MaxStatesPerEntry = 24;
  /// Inlining depth for program-defined methods.
  unsigned MaxInlineDepth = 4;
  /// Statement-evaluation budget per entry (guards pathological inputs).
  unsigned Fuel = 50000;
  /// Abstract-object budget per unit (0 = unlimited). Past the cap, new
  /// allocation sites degrade to untracked top objects — the analysis
  /// still terminates deterministically, and AnalysisStats flags the hit.
  unsigned MaxObjects = 32768;
};

/// Cap on the usage events one execution records for one abstract object.
/// Real usages are tiny (the generated corpora stay under 5 per object);
/// past the cap further events are dropped and AnalysisStats flags it.
inline constexpr unsigned MaxEventsPerObject = 256;

/// Resource consumption of one analyze() call. Lets the pipeline tell a
/// genuinely crypto-free file from one whose analysis was truncated by a
/// budget, and feeds the corpus-health "worst offenders" table.
struct AnalysisStats {
  /// Statement/expression evaluation steps consumed across all entries.
  std::uint64_t StepsUsed = 0;
  /// Entry methods discovered and executed.
  std::uint64_t Entries = 0;
  /// Allocation-site objects tracked at the end of the run.
  std::uint64_t ObjectsTracked = 0;
  /// Some entry ran out of Fuel (its exploration was truncated).
  bool FuelExhausted = false;
  /// The MaxObjects cap degraded at least one allocation site.
  bool ObjectBudgetHit = false;
  /// Some object's usage log reached MaxEventsPerObject and dropped an
  /// event.
  bool EventBudgetHit = false;

  bool anyBudgetHit() const {
    return FuelExhausted || ObjectBudgetHit || EventBudgetHit;
  }
};

/// Output of analyzing one program version.
struct AnalysisResult {
  ObjectTable Objects;
  /// One usage log per abstract execution (across all entry methods).
  std::vector<UsageLog> Executions;
  /// Resource consumption and budget flags for this analysis.
  AnalysisStats Stats;

  /// Union of all logs — convenient for whole-program rule checking
  /// (CryptoChecker matches against any execution).
  UsageLog mergedLog() const;
};

/// The analyzer. Stateless across analyze() calls except for options.
class AbstractInterpreter {
public:
  explicit AbstractInterpreter(const apimodel::CryptoApiModel &Api,
                               AnalysisOptions Opts = AnalysisOptions());

  /// Analyzes one compilation unit.
  AnalysisResult analyze(const java::CompilationUnit *Unit);

private:
  const apimodel::CryptoApiModel &Api;
  AnalysisOptions Opts;
};

} // namespace analysis
} // namespace diffcode

#endif // DIFFCODE_ANALYSIS_ABSTRACTINTERPRETER_H
