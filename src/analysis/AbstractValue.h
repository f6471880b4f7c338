//===- analysis/AbstractValue.h - Figure-3 abstract domains ---------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crypto-tailored base-type abstraction of Figure 3 plus heap values:
///
///   int      -> Ints(P) u {Tint}           (constants kept)
///   int[]    -> IntArrays(P) u {Tint[]}
///   string   -> Strs(P) u {Tstr}
///   string[] -> StrArrays(P) u {Tstr[]}
///   byte     -> {constbyte, Tbyte}
///   byte[]   -> {constbyte[], Tbyte[]}     (content abstracted away)
///   objects  -> allocation sites u {Tobj}
///
/// Integer constants keep an optional symbolic name so DAG labels read
/// "ENCRYPT_MODE" rather than "1" (Figure 2). Two provenance-only kinds,
/// Unknown and UnknownConst, carry results of unmodeled calls until a
/// declaration/cast coerces them into a domain: UnknownConst remembers
/// that every input was a program constant, which is what lets
/// `"k".getBytes()` surface as constbyte[] (rules R9-R11).
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_ANALYSIS_ABSTRACTVALUE_H
#define DIFFCODE_ANALYSIS_ABSTRACTVALUE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace diffcode {
namespace analysis {

/// Discriminator for AbstractValue.
enum class AVKind : std::uint8_t {
  Unknown,      ///< Result of an unmodeled computation, domain unknown.
  UnknownConst, ///< Like Unknown, but derived only from constants.
  Null,
  IntConst,
  IntTop,
  IntArrayConst,
  IntArrayTop,
  StrConst,
  StrTop,
  StrArrayConst,
  StrArrayTop,
  ByteConst,
  ByteTop,
  ByteArrayConst,
  ByteArrayTop,
  Object,    ///< A tracked allocation site.
  TopObject, ///< Tobj: allocation unknown (e.g. method parameters).
};

/// A value of the abstract domains above. Immutable by convention.
class AbstractValue {
public:
  AbstractValue() : Kind(AVKind::Unknown) {}

  // Named constructors.
  static AbstractValue unknown() { return AbstractValue(); }
  static AbstractValue unknownConst();
  static AbstractValue null();
  static AbstractValue intConst(std::int64_t Value,
                                std::string Symbol = std::string());
  static AbstractValue intTop();
  static AbstractValue intArrayConst(std::vector<std::int64_t> Elements);
  static AbstractValue intArrayTop();
  static AbstractValue strConst(std::string Value);
  static AbstractValue strTop();
  static AbstractValue strArrayConst(std::vector<std::string> Elements);
  static AbstractValue strArrayTop();
  static AbstractValue byteConst();
  static AbstractValue byteTop();
  static AbstractValue byteArrayConst();
  static AbstractValue byteArrayTop();
  static AbstractValue object(unsigned Id, std::string_view TypeName);
  static AbstractValue topObject(std::string_view TypeName);

  AVKind kind() const { return Kind; }
  bool isObjectLike() const {
    return Kind == AVKind::Object || Kind == AVKind::TopObject;
  }
  bool isTrackedObject() const { return Kind == AVKind::Object; }

  /// True when the value is a program constant under the abstraction
  /// (null counts as constant — it is a fixed program value).
  bool isConstant() const;

  std::int64_t intValue() const { return IntValue; }
  /// The string constant's value; empty for every other kind.
  const std::string &strValue() const {
    return Kind == AVKind::StrConst ? Text : NoText;
  }
  /// The int constant's symbolic name; empty for every other kind.
  const std::string &symbol() const {
    return Kind == AVKind::IntConst ? Text : NoText;
  }
  /// The object's type name; empty for every other kind.
  const std::string &typeName() const {
    return isObjectLike() ? Text : NoText;
  }
  unsigned objectId() const { return ObjectId; }
  const std::vector<std::int64_t> &intElements() const { return IntElems; }
  const std::vector<std::string> &strElements() const { return StrElems; }

  /// The DAG node label for this value used as a call argument
  /// (Section 3.4): constants print themselves, tops print their domain
  /// symbol, objects print their type name.
  std::string label() const;

  /// Join for merging control-flow paths: equal values stay, different
  /// values widen to the domain top (or Unknown across domains).
  static AbstractValue join(const AbstractValue &A, const AbstractValue &B);

  bool operator==(const AbstractValue &Other) const;
  bool operator!=(const AbstractValue &Other) const {
    return !(*this == Other);
  }

private:
  static inline const std::string NoText;

  AVKind Kind;
  unsigned ObjectId = 0;
  std::int64_t IntValue = 0;
  /// A string constant's value, an int constant's symbol or an object's
  /// type name: no kind carries two of them.
  std::string Text;
  std::vector<std::int64_t> IntElems;
  std::vector<std::string> StrElems;
};

} // namespace analysis
} // namespace diffcode

#endif // DIFFCODE_ANALYSIS_ABSTRACTVALUE_H
