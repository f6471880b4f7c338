//===- usage/UsageDag.cpp --------------------------------------------------===//

#include "usage/UsageDag.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <functional>
#include <set>
#include <string_view>

using namespace diffcode;
using namespace diffcode::usage;
using namespace diffcode::analysis;

namespace {

/// Appends \p N in decimal, as std::to_string writes it.
void appendNumber(std::string &Out, std::size_t N) {
  char Buf[24];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), N);
  assert(Ec == std::errc());
  Out.append(Buf, End);
}

/// Appends an encoding of \p L that no other label shares: a kind tag
/// (R, M, or S/A for string/other arguments, then the argument index),
/// followed by the length-prefixed text. So "1" and 1, or "null" and
/// null, stay distinct, and text holding '(', ',' or ')' cannot pose as
/// tree structure in a canonical string.
void appendLabelKey(std::string &Out, const NodeLabel &L) {
  switch (L.K) {
  case NodeLabel::Kind::Root:
    Out += 'R';
    break;
  case NodeLabel::Kind::Method:
    Out += 'M';
    break;
  case NodeLabel::Kind::Arg:
    Out += L.ValueIsString ? 'S' : 'A';
    appendNumber(Out, L.ArgIndex);
    Out += '.';
    break;
  }
  appendNumber(Out, L.Text.size());
  Out += ':';
  Out += L.Text;
}

/// Appends the subtree at \p Index as "label(child,child,...)", children
/// sorted. A lone child is rendered in place; several are rendered one
/// after another, then reordered through one copy.
void appendCanonical(std::string &Out, const std::vector<UsageDag::Node> &Nodes,
                     unsigned Index) {
  appendLabelKey(Out, Nodes[Index].Label);
  const std::vector<unsigned> &Children = Nodes[Index].Children;
  if (Children.empty())
    return;
  Out += '(';
  if (Children.size() == 1) {
    appendCanonical(Out, Nodes, Children.front());
    Out += ')';
    return;
  }
  const std::size_t Start = Out.size();
  std::vector<std::pair<std::size_t, std::size_t>> Kids; // offset, length
  Kids.reserve(Children.size());
  for (unsigned Child : Children) {
    std::size_t Offset = Out.size() - Start;
    appendCanonical(Out, Nodes, Child);
    Kids.emplace_back(Offset, Out.size() - Start - Offset);
  }
  std::string Rendered = Out.substr(Start);
  std::string_view All = Rendered;
  std::sort(Kids.begin(), Kids.end(), [All](const auto &A, const auto &B) {
    return All.substr(A.first, A.second) < All.substr(B.first, B.second);
  });
  Out.resize(Start);
  for (std::size_t I = 0; I < Kids.size(); ++I) {
    if (I != 0)
      Out += ',';
    Out += All.substr(Kids[I].first, Kids[I].second);
  }
  Out += ')';
}

/// Expands object nodes of one DAG under construction: one method child
/// per distinct usage event, one argument child per parameter;
/// tracked-object arguments recurse. Path holds the objects on the current
/// root-to-node path (at most one per two levels of MaxDepth), the guard
/// against cycles: an object is expanded at most once per path.
struct DagBuilder {
  const UsageLog &Log;
  const unsigned MaxDepth;
  std::vector<UsageDag::Node> &Nodes;
  std::vector<unsigned> Path;

  bool onPath(unsigned ObjId) const {
    return std::find(Path.begin(), Path.end(), ObjId) != Path.end();
  }

  void expandObject(unsigned NodeIdx, unsigned ObjId, unsigned Depth) {
    if (Depth >= MaxDepth)
      return;
    auto LogIt = Log.find(ObjId);
    if (LogIt == Log.end())
      return;
    Path.push_back(ObjId);

    // Distinct events only — the DAG is a set of (m, sigma) nodes.
    std::vector<const UsageEvent *> Distinct;
    for (const UsageEvent &Event : LogIt->second) {
      bool Seen = false;
      for (const UsageEvent *Prev : Distinct)
        Seen = Seen || (*Prev == Event);
      if (!Seen)
        Distinct.push_back(&Event);
    }

    for (const UsageEvent *Event : Distinct) {
      // The paper's no-cycle rule: an event whose arguments refer back to
      // an object on the current path would close a cycle (e.g.
      // re-expanding Cipher.init underneath the IvParameterSpec it
      // received) — skip it.
      bool ClosesCycle = false;
      for (const AbstractValue &Arg : Event->Args)
        if (Arg.isTrackedObject() && onPath(Arg.objectId()))
          ClosesCycle = true;
      if (ClosesCycle && Depth > 0)
        continue;
      unsigned MethodIdx = static_cast<unsigned>(Nodes.size());
      Nodes.push_back({NodeLabel::method(Event->MethodSig), {}});
      Nodes[NodeIdx].Children.push_back(MethodIdx);
      if (Depth + 1 >= MaxDepth)
        continue;
      for (std::size_t I = 0; I < Event->Args.size(); ++I) {
        const AbstractValue &Arg = Event->Args[I];
        unsigned ArgIdx = static_cast<unsigned>(Nodes.size());
        Nodes.push_back(
            {NodeLabel::arg(static_cast<unsigned>(I + 1), Arg), {}});
        Nodes[MethodIdx].Children.push_back(ArgIdx);
        if (Arg.isTrackedObject() && !onPath(Arg.objectId()))
          expandObject(ArgIdx, Arg.objectId(), Depth + 2);
      }
    }
    Path.pop_back();
  }
};

} // namespace

NodeLabel NodeLabel::root(std::string TypeName) {
  NodeLabel L;
  L.K = Kind::Root;
  L.Text = std::move(TypeName);
  return L;
}

NodeLabel NodeLabel::method(std::string Signature) {
  NodeLabel L;
  L.K = Kind::Method;
  // Node labels carry "Class.name" without the arity suffix: the paper's
  // Figure 2 diff localizes the init/2 -> init/3 change to the added
  // arg3 path, which requires the two init nodes to share a label.
  std::size_t Slash = Signature.rfind('/');
  if (Slash != std::string::npos)
    Signature.resize(Slash);
  L.Text = std::move(Signature);
  return L;
}

NodeLabel NodeLabel::arg(unsigned Index, const AbstractValue &Value) {
  NodeLabel L;
  L.K = Kind::Arg;
  L.ArgIndex = Index;
  L.ValueIsString = Value.kind() == AVKind::StrConst;
  L.Text = Value.label();
  return L;
}

void UsageDag::computeIdentity() {
  Canonical.clear();
  appendCanonical(Canonical, Nodes, 0);
  Hash = support::fnv1a64(Canonical);
}

UsageDag UsageDag::emptyFor(std::string TypeName) {
  UsageDag Dag;
  Dag.Nodes.push_back({NodeLabel::root(std::move(TypeName)), {}});
  Dag.computeIdentity();
  return Dag;
}

UsageDag UsageDag::build(const ObjectTable &Objects, const UsageLog &Log,
                         unsigned RootObj, unsigned MaxDepth) {
  UsageDag Dag;
  Dag.Nodes.push_back(
      {NodeLabel::root(Objects.get(RootObj).TypeName), {}});
  DagBuilder{Log, MaxDepth, Dag.Nodes, {}}.expandObject(0, RootObj, 0);
  Dag.computeIdentity();
  return Dag;
}

std::vector<FeaturePath> UsageDag::paths() const {
  std::vector<FeaturePath> Out;
  // Dedup on label keys, not display strings: two labels that render
  // alike are still different path elements (see appendLabelKey).
  std::set<std::string> Seen;
  FeaturePath Current;
  std::string Key; // label keys of Current, concatenated

  std::function<void(unsigned)> Walk = [&](unsigned Index) {
    std::size_t Mark = Key.size();
    appendLabelKey(Key, Nodes[Index].Label);
    Current.push_back(Nodes[Index].Label);
    if (Seen.insert(Key).second)
      Out.push_back(Current);
    for (unsigned Child : Nodes[Index].Children)
      Walk(Child);
    Current.pop_back();
    Key.resize(Mark);
  };
  Walk(0);
  return Out;
}

std::vector<NodeLabel> UsageDag::labelSet() const {
  std::vector<NodeLabel> Labels;
  Labels.reserve(Nodes.size());
  for (const Node &N : Nodes)
    Labels.push_back(N.Label);
  std::sort(Labels.begin(), Labels.end());
  Labels.erase(std::unique(Labels.begin(), Labels.end()), Labels.end());
  return Labels;
}

std::string UsageDag::str() const {
  std::string Out;
  std::function<void(unsigned, unsigned)> Walk = [&](unsigned Index,
                                                     unsigned Depth) {
    Out.append(Depth * 2, ' ');
    Out += Nodes[Index].Label.str();
    Out += '\n';
    for (unsigned Child : Nodes[Index].Children)
      Walk(Child, Depth + 1);
  };
  Walk(0, 0);
  return Out;
}

double diffcode::usage::dagDistance(const UsageDag &A, const UsageDag &B) {
  std::vector<NodeLabel> LA = A.labelSet();
  std::vector<NodeLabel> LB = B.labelSet();
  std::size_t Common = 0;
  std::size_t I = 0, J = 0;
  while (I < LA.size() && J < LB.size()) {
    if (LA[I] == LB[J]) {
      ++Common;
      ++I;
      ++J;
    } else if (LA[I] < LB[J]) {
      ++I;
    } else {
      ++J;
    }
  }
  std::size_t Union = LA.size() + LB.size() - Common;
  if (Union == 0)
    return 0.0;
  return 1.0 - static_cast<double>(Common) / static_cast<double>(Union);
}
