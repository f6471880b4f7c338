//===- usage/UsageDag.h - Rooted usage DAGs (Section 3.4) ------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rooted DAGs over abstract usages. The root is (0, o^a) for an abstract
/// object; method nodes (m, sigma^a) hang off object nodes; argument nodes
/// (i, a) hang off method nodes; tracked-object arguments expand
/// recursively up to a fixed depth (paper: n = 5).
///
/// Node labels are structured (NodeLabel) so the clustering metric can
/// honor the paper's unit rules: string constants compare per character
/// under Levenshtein, while method signatures, integers, abstract bytes,
/// and type names are atomic units.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_USAGE_USAGEDAG_H
#define DIFFCODE_USAGE_USAGEDAG_H

#include "analysis/AbstractObject.h"
#include "analysis/UsageEvent.h"

#include <cstdint>
#include <string>
#include <vector>

namespace diffcode {
namespace usage {

/// A structured DAG node label.
struct NodeLabel {
  enum class Kind : std::uint8_t {
    Root,   ///< (0, o^a): Text = type name.
    Method, ///< (m, sigma^a): Text = method signature.
    Arg,    ///< (i, a): Text = abstract-value label, ArgIndex = i.
  };

  Kind K = Kind::Root;
  unsigned ArgIndex = 0;
  /// True for Arg labels whose value is a string constant — those compare
  /// per character in the clustering metric (Section 4.3).
  bool ValueIsString = false;
  std::string Text;

  static NodeLabel root(std::string TypeName);
  static NodeLabel method(std::string Signature);
  static NodeLabel arg(unsigned Index, const analysis::AbstractValue &Value);

  /// Display form: "Cipher", "Cipher.getInstance", "arg1:AES". Inline so
  /// support/Interner can render labels without a link-time dependency on
  /// this library.
  std::string str() const {
    if (K == Kind::Arg)
      return "arg" + std::to_string(ArgIndex) + ":" + Text;
    return Text;
  }

  /// Full structural identity, including ValueIsString: the clustering
  /// metric assigns different Levenshtein units to string and non-string
  /// labels with equal text, and the interned label table
  /// (support/Interner) makes id equality coincide with this operator.
  bool operator==(const NodeLabel &Other) const {
    return K == Other.K && ArgIndex == Other.ArgIndex &&
           ValueIsString == Other.ValueIsString && Text == Other.Text;
  }
  bool operator<(const NodeLabel &Other) const {
    if (K != Other.K)
      return K < Other.K;
    if (ArgIndex != Other.ArgIndex)
      return ArgIndex < Other.ArgIndex;
    if (ValueIsString != Other.ValueIsString)
      return ValueIsString < Other.ValueIsString;
    return Text < Other.Text;
  }
};

/// A root-to-node label sequence; the unit of the usage-change features
/// F- / F+ (Section 3.5).
using FeaturePath = std::vector<NodeLabel>;

/// Renders a path as "Cipher getInstance arg1:AES". Inline for the same
/// reason as NodeLabel::str(): the support-level interner renders paths
/// at emission time without linking this library.
inline std::string pathToString(const FeaturePath &Path) {
  std::string Out;
  for (std::size_t I = 0; I < Path.size(); ++I) {
    if (I != 0)
      Out += ' ';
    Out += Path[I].str();
  }
  return Out;
}

/// One rooted usage DAG.
class UsageDag {
public:
  struct Node {
    NodeLabel Label;
    std::vector<unsigned> Children;
  };

  /// Builds the DAG for \p RootObj from one execution's usage log.
  /// \p MaxDepth bounds the node depth (root is depth 0).
  static UsageDag build(const analysis::ObjectTable &Objects,
                        const analysis::UsageLog &Log, unsigned RootObj,
                        unsigned MaxDepth = 5);

  /// A DAG containing only a root labeled with \p TypeName — the padding
  /// element used when pairing versions with unequal DAG counts.
  static UsageDag emptyFor(std::string TypeName);

  const Node &node(unsigned Index) const { return Nodes[Index]; }
  unsigned root() const { return 0; }
  std::size_t size() const { return Nodes.size(); }
  bool isRootOnly() const { return Nodes.size() == 1; }
  const std::string &typeName() const { return Nodes[0].Label.Text; }

  /// All root-prefix paths (one per node, deduplicated).
  std::vector<FeaturePath> paths() const;

  /// The deduplicated multiset-as-set of node labels, for the
  /// intersection-over-union distance.
  std::vector<NodeLabel> labelSet() const;

  /// Canonical serialization: children sorted, and every label written
  /// with its kind, argument index, string flag and length-prefixed
  /// text, so labels that render alike ("1" and 1) stay apart. Equal
  /// strings iff the DAGs are isomorphic with equal labels. Computed once
  /// at construction, so a built DAG is immutable and safe to share
  /// across threads.
  const std::string &canonicalString() const { return Canonical; }

  /// 64-bit FNV-1a hash of canonicalString(), computed with it.
  std::uint64_t canonicalHash() const { return Hash; }

  /// Same canonical identity: compares the hashes, then confirms on the
  /// strings, so a hash collision cannot make two DAGs equal.
  bool sameIdentity(const UsageDag &Other) const {
    return Hash == Other.Hash && Canonical == Other.Canonical;
  }

  /// Human-readable indented rendering (one node per line), as shown in
  /// the paper's Figure 2(b)/(c).
  std::string str() const;

private:
  /// Fills Canonical and Hash from Nodes; the last step of build and
  /// emptyFor.
  void computeIdentity();

  std::vector<Node> Nodes;
  std::string Canonical;
  std::uint64_t Hash = 0;
};

/// Intersection-over-union distance between two DAGs (Section 3.5):
/// 1 - |N1 n N2| / |N1 u N2| over node-label sets. Result in [0, 1].
double dagDistance(const UsageDag &A, const UsageDag &B);

} // namespace usage
} // namespace diffcode

#endif // DIFFCODE_USAGE_USAGEDAG_H
