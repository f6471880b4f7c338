//===- analysis/AbstractInterpreter.cpp ------------------------------------===//

#include "analysis/AbstractInterpreter.h"

#include "javaast/AstVisitor.h"
#include "support/Casting.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::java;

UsageLog AnalysisResult::mergedLog() const {
  UsageLog Merged;
  for (const UsageLog &Log : Executions)
    for (const auto &[ObjId, Events] : Log)
      for (const UsageEvent &Event : Events) {
        std::vector<UsageEvent> &Dest = Merged[ObjId];
        if (std::find(Dest.begin(), Dest.end(), Event) == Dest.end())
          Dest.push_back(Event);
      }
  return Merged;
}

namespace {

using BaseAbstraction = AnalysisOptions::BaseAbstraction;

// Every name the engine keys its state by is a view of a string in the
// analyzed AST (a declaration's or a reference's own spelling), which
// outlives the engine. The views never reach AnalysisResult.

/// An instance field of a tracked object: (object id, field name).
struct FieldKey {
  unsigned Obj;
  std::string_view Field;
  bool operator==(const FieldKey &) const = default;
};

/// A static field as the program names it: (class name, field name). A
/// field inherited from a superclass is keyed by the class it was named
/// through, so `F` inside Sub and `Super.F` are different slots.
struct StaticKey {
  std::string_view Class;
  std::string_view Field;
  bool operator==(const StaticKey &) const = default;
};

struct FieldKeyHash {
  std::size_t operator()(const FieldKey &K) const {
    return std::hash<std::string_view>{}(K.Field) * 31 + K.Obj;
  }
};

struct StaticKeyHash {
  std::size_t operator()(const StaticKey &K) const {
    return std::hash<std::string_view>{}(K.Class) * 31 +
           std::hash<std::string_view>{}(K.Field);
  }
};

/// Mutable state of one abstract execution path. Lookups are hashed:
/// units with tens of thousands of locals stay linear.
struct ExecState {
  std::unordered_map<std::string_view, AbstractValue> Locals;
  /// Declared types of locals, so later assignments coerce into the
  /// declared domain (e.g. `byte[] b; b = unknown()` must become Tbyte[]).
  std::unordered_map<std::string_view, const TypeRef *> LocalTypes;
  std::unordered_map<FieldKey, AbstractValue, FieldKeyHash> Fields;
  std::unordered_map<StaticKey, AbstractValue, StaticKeyHash> Statics;
  UsageLog Log;
  bool Returned = false;
  AbstractValue RetValue;
};

/// The unqualified name ("Cipher" for "javax.crypto.Cipher"), as a view
/// of the qualified one: TypeRef::baseName without the copy.
std::string_view baseNameOf(std::string_view Qualified) {
  std::size_t Pos = Qualified.rfind('.');
  return Pos == std::string_view::npos ? Qualified : Qualified.substr(Pos + 1);
}

/// Call context for one method being interpreted.
struct Frame {
  const ClassDecl *CurrentClass = nullptr;
  AbstractValue ThisVal; ///< Object value, or Null inside static code.
  unsigned Depth = 0;
  const MethodDecl *Method = nullptr;
  const Frame *Caller = nullptr; ///< Null for the entry method's frame.

  /// True when \p M is being interpreted in this frame or a caller's.
  bool onStack(const MethodDecl *M) const {
    for (const Frame *Cur = this; Cur; Cur = Cur->Caller)
      if (Cur->Method == M)
        return true;
    return false;
  }
};

/// "Class.name/arity": the signature recorded for a call the API model
/// does not declare.
std::string unmodeledSig(std::string_view Class, std::string_view Method,
                         std::size_t Arity) {
  std::string Sig(Class);
  Sig += '.';
  Sig += Method;
  Sig += '/';
  Sig += std::to_string(Arity);
  return Sig;
}

/// The actual interpreter engine (one per analyze() call).
class Engine {
public:
  Engine(const apimodel::CryptoApiModel &Api, const AnalysisOptions &Opts)
      : Api(Api), Opts(Opts) {}

  AnalysisResult run(const CompilationUnit *Unit);

private:
  // --- program indexing --------------------------------------------------
  void indexClasses(const ClassDecl *Class);
  void collectCallTargets(const AstNode *Node);
  std::vector<std::pair<const ClassDecl *, const MethodDecl *>>
  findEntryMethods() const;

  const ClassDecl *lookupProgramClass(std::string_view Name) const {
    auto It = ProgramClasses.find(Name);
    return It == ProgramClasses.end() ? nullptr : It->second;
  }
  const MethodDecl *lookupProgramMethod(const ClassDecl *Class,
                                        std::string_view Name,
                                        std::size_t Arity) const;
  const FieldDecl *lookupField(const ClassDecl *Class,
                               std::string_view Name) const;

  /// Resolves an expression that syntactically denotes a class (NameExpr
  /// or dotted package path); returns the unqualified class name or
  /// nullopt when the expression is a value.
  std::optional<std::string_view> exprAsTypeName(const Expr *E,
                                                 const ExecState &State,
                                                 const Frame &F) const;

  // --- abstraction helpers -----------------------------------------------
  AbstractValue literalInt(std::int64_t V, std::string_view Symbol = {}) const;
  AbstractValue literalStr(const std::string &V) const;
  AbstractValue coerce(AbstractValue V, const TypeRef &Type) const {
    return coerce(std::move(V), Type.Name, Type.isArray());
  }
  /// Coerces into the domain of a type spelled \p Name, an array type
  /// when \p IsArray.
  AbstractValue coerce(AbstractValue V, std::string_view Name,
                       bool IsArray) const;
  AbstractValue returnTypeToValue(std::string_view TypeName) const;

  // --- event recording ---------------------------------------------------
  void record(ExecState &State, unsigned ObjId, const std::string &Sig,
              const std::vector<AbstractValue> &Args);
  void recordOnObjectArgs(ExecState &State, const std::string &Sig,
                          const std::vector<AbstractValue> &Args);

  // --- statement interpretation -------------------------------------------
  void execStmt(const Stmt *S, std::vector<ExecState> &States, Frame &F);
  void execStmtList(const std::vector<Stmt *> &Stmts,
                    std::vector<ExecState> &States, Frame &F);
  void capStates(std::vector<ExecState> &States) const;
  /// Joins \p B into \p Out: the state that reaches either.
  static void joinInto(ExecState &Out, const ExecState &B);

  // --- expression evaluation ----------------------------------------------
  AbstractValue evalExpr(const Expr *E, ExecState &State, Frame &F);
  AbstractValue evalCall(const MethodCallExpr *Call, ExecState &State,
                         Frame &F);
  AbstractValue evalNewObject(const NewObjectExpr *New, ExecState &State,
                              Frame &F);
  AbstractValue evalNewArray(const NewArrayExpr *New, ExecState &State,
                             Frame &F);
  AbstractValue evalArrayInit(const ArrayInitExpr *Init, ExecState &State,
                              Frame &F);
  AbstractValue evalBinary(const BinaryExpr *Bin, ExecState &State, Frame &F);
  AbstractValue evalFieldAccess(const FieldAccessExpr *Access,
                                ExecState &State, Frame &F);
  AbstractValue evalName(const NameExpr *Name, ExecState &State, Frame &F);
  void assignTo(const Expr *Lhs, AbstractValue Value, ExecState &State,
                Frame &F);

  AbstractValue applyApiCall(ExecState &State, const apimodel::ApiMethod *M,
                             const AbstractValue *Receiver,
                             const std::vector<AbstractValue> &Args,
                             SourceLocation Loc);
  AbstractValue evalStringMethod(std::string_view Name,
                                 const AbstractValue &Receiver,
                                 const std::vector<AbstractValue> &Args);
  AbstractValue unknownCallResult(const AbstractValue *Receiver,
                                  const std::vector<AbstractValue> &Args);
  std::optional<AbstractValue>
  evalKnownStaticCall(std::string_view ClassName, std::string_view Name,
                      const std::vector<AbstractValue> &Args);
  AbstractValue inlineCall(const MethodDecl *M, const ClassDecl *Class,
                           AbstractValue ThisVal,
                           const std::vector<AbstractValue> &Args,
                           ExecState &State, Frame &F);
  void initializeFields(const ClassDecl *Class, unsigned ThisId,
                        ExecState &State, Frame &F);

  /// True while the object budget still allows tracking a new allocation
  /// site; records the budget hit otherwise.
  bool objectBudgetLeft() {
    if (Opts.MaxObjects != 0 && Objects.size() >= Opts.MaxObjects) {
      Stats.ObjectBudgetHit = true;
      return false;
    }
    return true;
  }

  const apimodel::CryptoApiModel &Api;
  const AnalysisOptions &Opts;

  ObjectTable Objects;
  AnalysisStats Stats;
  std::unordered_map<std::string_view, const ClassDecl *> ProgramClasses;
  std::unordered_set<std::string_view> CalledMethodNames;
  std::unordered_set<std::string_view> InstantiatedClassNames;
  unsigned Fuel = 0;
};

//===----------------------------------------------------------------------===//
// Indexing and entry discovery
//===----------------------------------------------------------------------===//

void Engine::indexClasses(const ClassDecl *Class) {
  ProgramClasses.emplace(Class->Name, Class);
  for (const ClassDecl *Nested : Class->NestedClasses)
    indexClasses(Nested);
}

// Collect the names of invoked methods and instantiated classes; used
// for name-based entry discovery.
namespace detail {
class CallTargetCollector final : public AstVisitor {
public:
  CallTargetCollector(std::unordered_set<std::string_view> &Called,
                      std::unordered_set<std::string_view> &Instantiated)
      : Called(Called), Instantiated(Instantiated) {}

protected:
  bool visitCall(const MethodCallExpr &Call) override {
    Called.insert(Call.Name);
    return true;
  }
  bool visitNewObject(const NewObjectExpr &New) override {
    Instantiated.insert(baseNameOf(New.Type.Name));
    return true;
  }

private:
  std::unordered_set<std::string_view> &Called;
  std::unordered_set<std::string_view> &Instantiated;
};
} // namespace detail

void Engine::collectCallTargets(const AstNode *Node) {
  detail::CallTargetCollector Collector(CalledMethodNames,
                                        InstantiatedClassNames);
  Collector.walk(Node);
}

std::vector<std::pair<const ClassDecl *, const MethodDecl *>>
Engine::findEntryMethods() const {
  std::vector<std::pair<const ClassDecl *, const MethodDecl *>> Entries;
  for (const auto &[Name, Class] : ProgramClasses) {
    std::size_t Before = Entries.size();
    for (const MethodDecl *Method : Class->Methods) {
      if (!Method->Body)
        continue;
      bool Called = Method->IsConstructor
                        ? InstantiatedClassNames.count(Class->Name) != 0
                        : CalledMethodNames.count(Method->Name) != 0;
      if (!Called || Method->Name == "main")
        Entries.emplace_back(Class, Method);
    }
    // Everything is called from somewhere (cycles / helper-only classes):
    // fall back to analyzing every method so allocation sites are still
    // reached — but not for instantiated classes, whose code is driven by
    // inlining from the instantiating entries.
    if (Entries.size() == Before &&
        InstantiatedClassNames.count(Class->Name) == 0) {
      for (const MethodDecl *Method : Class->Methods)
        if (Method->Body)
          Entries.emplace_back(Class, Method);
    }
  }
  // Deterministic order: by class name, then declaration order.
  std::sort(Entries.begin(), Entries.end(), [](const auto &A, const auto &B) {
    if (A.first->Name != B.first->Name)
      return A.first->Name < B.first->Name;
    return A.second->getLoc().Line < B.second->getLoc().Line;
  });
  return Entries;
}

const MethodDecl *Engine::lookupProgramMethod(const ClassDecl *Class,
                                              std::string_view Name,
                                              std::size_t Arity) const {
  const MethodDecl *Best = nullptr;
  std::size_t BestGap = SIZE_MAX;
  for (const MethodDecl *Method : Class->Methods) {
    if (Method->Name != Name || !Method->Body)
      continue;
    std::size_t Have = Method->Params.size();
    std::size_t Gap = Have > Arity ? Have - Arity : Arity - Have;
    if (Gap < BestGap) {
      BestGap = Gap;
      Best = Method;
    }
  }
  if (Best)
    return Best;
  // Follow the (single-level) superclass chain within the unit.
  if (!Class->SuperClass.empty())
    if (const ClassDecl *Super = lookupProgramClass(Class->SuperClass))
      if (Super != Class)
        return lookupProgramMethod(Super, Name, Arity);
  return nullptr;
}

const FieldDecl *Engine::lookupField(const ClassDecl *Class,
                                     std::string_view Name) const {
  for (const FieldDecl *Field : Class->Fields)
    if (Field->Name == Name)
      return Field;
  if (!Class->SuperClass.empty())
    if (const ClassDecl *Super = lookupProgramClass(Class->SuperClass))
      if (Super != Class)
        return lookupField(Super, Name);
  return nullptr;
}

std::optional<std::string_view>
Engine::exprAsTypeName(const Expr *E, const ExecState &State,
                       const Frame &F) const {
  if (const auto *Name = dyn_cast<NameExpr>(E)) {
    // A name shadowed by a local or a field is a value, not a type.
    if (State.Locals.count(Name->Name))
      return std::nullopt;
    if (F.CurrentClass && lookupField(F.CurrentClass, Name->Name))
      return std::nullopt;
    if (Api.lookupClass(Name->Name) || lookupProgramClass(Name->Name))
      return Name->Name;
    // Heuristic: capitalized unknown names act as (unmodeled) classes so
    // `Hex.decodeHex(...)` resolves as a static call.
    if (!Name->Name.empty() && std::isupper(Name->Name[0]))
      return Name->Name;
    return std::nullopt;
  }
  if (const auto *Access = dyn_cast<FieldAccessExpr>(E)) {
    // Dotted path `javax.crypto.Cipher`: the last segment is the class if
    // it is known; only accept when the prefix looks like a package
    // (lowercase identifiers).
    const Expr *Cur = Access->Base;
    bool PackagePrefix = true;
    while (const auto *Inner = dyn_cast<FieldAccessExpr>(Cur)) {
      if (Inner->Name.empty() || std::isupper(Inner->Name[0]))
        PackagePrefix = false;
      Cur = Inner->Base;
    }
    if (const auto *Root = dyn_cast<NameExpr>(Cur)) {
      if (!Root->Name.empty() && std::isupper(Root->Name[0]))
        PackagePrefix = false;
      if (PackagePrefix &&
          (Api.lookupClass(Access->Name) || lookupProgramClass(Access->Name)))
        return Access->Name;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Abstraction helpers
//===----------------------------------------------------------------------===//

AbstractValue Engine::literalInt(std::int64_t V,
                                 std::string_view Symbol) const {
  if (Opts.Abstraction == BaseAbstraction::AllTop)
    return AbstractValue::intTop();
  return AbstractValue::intConst(V, std::string(Symbol));
}

AbstractValue Engine::literalStr(const std::string &V) const {
  if (Opts.Abstraction == BaseAbstraction::AllTop)
    return AbstractValue::strTop();
  return AbstractValue::strConst(V);
}

static bool isByteLikeName(std::string_view Name) {
  return Name == "byte" || Name == "char";
}

static bool isIntLikeName(std::string_view Name) {
  return Name == "int" || Name == "long" || Name == "short" ||
         Name == "boolean" || Name == "double" || Name == "float";
}

AbstractValue Engine::coerce(AbstractValue V, std::string_view Name,
                             bool IsArray) const {
  if (V.kind() == AVKind::Null)
    return V;

  if (IsArray && isByteLikeName(Name)) {
    switch (V.kind()) {
    case AVKind::ByteArrayConst:
    case AVKind::ByteArrayTop:
      return V;
    case AVKind::IntArrayConst:
      if (Opts.Abstraction == BaseAbstraction::KeepAllConstants)
        return V; // ablation: keep element values for byte arrays too
      return AbstractValue::byteArrayConst();
    case AVKind::StrConst:
    case AVKind::UnknownConst:
      return AbstractValue::byteArrayConst();
    default:
      return V.isConstant() ? AbstractValue::byteArrayConst()
                            : AbstractValue::byteArrayTop();
    }
  }
  if (IsArray && Name == "int")
    return V.kind() == AVKind::IntArrayConst ? V
                                             : AbstractValue::intArrayTop();
  if (IsArray && Name == "String")
    return V.kind() == AVKind::StrArrayConst ? V
                                             : AbstractValue::strArrayTop();
  if (IsArray) // arrays of objects: keep object identity if any
    return V.isObjectLike() ? V : AbstractValue::unknown();

  if (isByteLikeName(Name))
    return V.isConstant() ? AbstractValue::byteConst()
                          : AbstractValue::byteTop();
  if (isIntLikeName(Name)) {
    if (V.kind() == AVKind::IntConst)
      return V;
    return AbstractValue::intTop();
  }
  if (Name == "String") {
    if (V.kind() == AVKind::StrConst || V.kind() == AVKind::StrTop)
      return V;
    return AbstractValue::strTop();
  }
  if (Name == "void" || Name == "<error>" || Name.empty())
    return V;

  // Object types: keep tracked objects, otherwise an unknown-allocation
  // object of the declared type (Tobj labeled by the static type).
  if (V.isObjectLike())
    return V;
  return AbstractValue::topObject(baseNameOf(Name));
}

AbstractValue Engine::returnTypeToValue(std::string_view TypeName) const {
  if (TypeName == "void")
    return AbstractValue::unknown();
  if (TypeName == "byte[]" || TypeName == "char[]")
    return AbstractValue::byteArrayTop();
  if (TypeName == "int" || TypeName == "long")
    return AbstractValue::intTop();
  if (TypeName == "String")
    return AbstractValue::strTop();
  return AbstractValue::topObject(TypeName);
}

//===----------------------------------------------------------------------===//
// Event recording
//===----------------------------------------------------------------------===//

void Engine::record(ExecState &State, unsigned ObjId, const std::string &Sig,
                    const std::vector<AbstractValue> &Args) {
  std::vector<UsageEvent> &Events = State.Log[ObjId];
  if (Events.size() >= MaxEventsPerObject) {
    Stats.EventBudgetHit = true;
    return;
  }
  Events.push_back({Sig, Args});
}

void Engine::recordOnObjectArgs(ExecState &State, const std::string &Sig,
                                const std::vector<AbstractValue> &Args) {
  for (const AbstractValue &Arg : Args)
    if (Arg.isTrackedObject())
      record(State, Arg.objectId(), Sig, Args);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Engine::joinInto(ExecState &Out, const ExecState &B) {
  for (const auto &[Name, Val] : B.Locals) {
    auto It = Out.Locals.find(Name);
    if (It == Out.Locals.end())
      Out.Locals.emplace(Name, Val);
    else
      It->second = AbstractValue::join(It->second, Val);
  }
  for (const auto &[Name, Type] : B.LocalTypes)
    Out.LocalTypes.emplace(Name, Type);
  for (const auto &[Key, Val] : B.Fields) {
    auto It = Out.Fields.find(Key);
    if (It == Out.Fields.end())
      Out.Fields.emplace(Key, Val);
    else
      It->second = AbstractValue::join(It->second, Val);
  }
  for (const auto &[Key, Val] : B.Statics) {
    auto It = Out.Statics.find(Key);
    if (It == Out.Statics.end())
      Out.Statics.emplace(Key, Val);
    else
      It->second = AbstractValue::join(It->second, Val);
  }
  for (const auto &[ObjId, Events] : B.Log) {
    std::vector<UsageEvent> &Dest = Out.Log[ObjId];
    for (const UsageEvent &Event : Events)
      if (std::find(Dest.begin(), Dest.end(), Event) == Dest.end())
        Dest.push_back(Event);
  }
  Out.Returned = Out.Returned && B.Returned;
  Out.RetValue = AbstractValue::join(Out.RetValue, B.RetValue);
}

void Engine::capStates(std::vector<ExecState> &States) const {
  if (States.size() <= Opts.MaxStatesPerEntry)
    return;
  // Fold the surplus into the last kept slot so no execution's events are
  // lost, only their path-separation.
  ExecState &Folded = States[Opts.MaxStatesPerEntry - 1];
  for (std::size_t I = Opts.MaxStatesPerEntry; I < States.size(); ++I)
    joinInto(Folded, States[I]);
  States.resize(Opts.MaxStatesPerEntry);
}

void Engine::execStmtList(const std::vector<Stmt *> &Stmts,
                          std::vector<ExecState> &States, Frame &F) {
  for (const Stmt *S : Stmts)
    execStmt(S, States, F);
}

void Engine::execStmt(const Stmt *S, std::vector<ExecState> &States,
                      Frame &F) {
  if (Fuel == 0) {
    Stats.FuelExhausted = true;
    return;
  }
  --Fuel;
  support::throwIfFault(support::FaultSite::Interpreter, Fuel);

  switch (S->getKind()) {
  case NodeKind::BlockStmt:
    execStmtList(cast<Block>(S)->Stmts, States, F);
    return;
  case NodeKind::EmptyStmt:
  case NodeKind::BreakStmt:
  case NodeKind::ContinueStmt:
    return;
  case NodeKind::LocalVarDeclStmt: {
    const auto *Decl = cast<LocalVarDeclStmt>(S);
    for (ExecState &State : States) {
      if (State.Returned)
        continue;
      AbstractValue Init = Decl->Init
                               ? evalExpr(Decl->Init, State, F)
                               : coerce(AbstractValue::unknown(), Decl->Type);
      State.Locals[Decl->Name] = coerce(std::move(Init), Decl->Type);
      State.LocalTypes[Decl->Name] = &Decl->Type;
    }
    return;
  }
  case NodeKind::ExprStmt:
    for (ExecState &State : States)
      if (!State.Returned)
        evalExpr(cast<ExprStmt>(S)->E, State, F);
    return;
  case NodeKind::ReturnStmt: {
    const auto *Ret = cast<ReturnStmt>(S);
    for (ExecState &State : States) {
      if (State.Returned)
        continue;
      if (Ret->Value)
        State.RetValue = evalExpr(Ret->Value, State, F);
      State.Returned = true;
    }
    return;
  }
  case NodeKind::ThrowStmt:
    for (ExecState &State : States) {
      if (State.Returned)
        continue;
      evalExpr(cast<ThrowStmt>(S)->Value, State, F);
      State.Returned = true;
    }
    return;
  case NodeKind::IfStmt: {
    const auto *If = cast<IfStmt>(S);
    // Partition states by the abstract condition value: a constant
    // condition prunes the dead branch (precision for `if (DEBUG)`-style
    // flags); unknown conditions fork.
    std::vector<ExecState> ThenStates, ElseStates, PassThrough;
    for (ExecState &State : States) {
      if (State.Returned) {
        PassThrough.push_back(std::move(State));
        continue;
      }
      AbstractValue Cond = evalExpr(If->Cond, State, F);
      if (Cond.kind() == AVKind::IntConst) {
        (Cond.intValue() != 0 ? ThenStates : ElseStates)
            .push_back(std::move(State));
      } else {
        ThenStates.push_back(State);
        ElseStates.push_back(std::move(State));
      }
    }
    execStmt(If->Then, ThenStates, F);
    if (If->Else)
      execStmt(If->Else, ElseStates, F);
    States = std::move(PassThrough);
    States.insert(States.end(), std::make_move_iterator(ThenStates.begin()),
                  std::make_move_iterator(ThenStates.end()));
    States.insert(States.end(), std::make_move_iterator(ElseStates.begin()),
                  std::make_move_iterator(ElseStates.end()));
    capStates(States);
    return;
  }
  case NodeKind::WhileStmt: {
    const auto *While = cast<WhileStmt>(S);
    for (ExecState &State : States)
      if (!State.Returned)
        evalExpr(While->Cond, State, F);
    // 0 or 1 abstract iterations.
    std::vector<ExecState> OnceStates = States;
    execStmt(While->Body, OnceStates, F);
    States.insert(States.end(), std::make_move_iterator(OnceStates.begin()),
                  std::make_move_iterator(OnceStates.end()));
    capStates(States);
    return;
  }
  case NodeKind::DoStmt: {
    const auto *Do = cast<DoStmt>(S);
    // Body runs at least once.
    execStmt(Do->Body, States, F);
    for (ExecState &State : States)
      if (!State.Returned)
        evalExpr(Do->Cond, State, F);
    return;
  }
  case NodeKind::ForStmt: {
    const auto *For = cast<ForStmt>(S);
    if (For->Init)
      execStmt(For->Init, States, F);
    for (ExecState &State : States) {
      if (State.Returned)
        continue;
      if (For->Cond)
        evalExpr(For->Cond, State, F);
    }
    std::vector<ExecState> OnceStates = States;
    execStmt(For->Body, OnceStates, F);
    for (ExecState &State : OnceStates) {
      if (State.Returned)
        continue;
      if (For->Update)
        evalExpr(For->Update, State, F);
    }
    States.insert(States.end(), std::make_move_iterator(OnceStates.begin()),
                  std::make_move_iterator(OnceStates.end()));
    capStates(States);
    return;
  }
  case NodeKind::TryStmt: {
    const auto *Try = cast<TryStmt>(S);
    execStmt(Try->Body, States, F);
    // Each catch clause forks an execution that additionally runs the
    // handler with the exception bound to an unknown object.
    std::vector<ExecState> WithCatches;
    for (const CatchClause &Clause : Try->Catches) {
      std::vector<ExecState> CatchStates = States;
      for (ExecState &State : CatchStates) {
        State.Returned = false; // the exception preempted the return
        if (!Clause.Name.empty() && !Clause.Types.empty())
          State.Locals[Clause.Name] =
              AbstractValue::topObject(baseNameOf(Clause.Types.front().Name));
      }
      execStmt(Clause.Body, CatchStates, F);
      WithCatches.insert(WithCatches.end(),
                         std::make_move_iterator(CatchStates.begin()),
                         std::make_move_iterator(CatchStates.end()));
    }
    States.insert(States.end(), std::make_move_iterator(WithCatches.begin()),
                  std::make_move_iterator(WithCatches.end()));
    capStates(States);
    if (Try->Finally)
      execStmt(Try->Finally, States, F);
    return;
  }
  default:
    assert(false && "unhandled statement kind");
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

AbstractValue Engine::evalExpr(const Expr *E, ExecState &State, Frame &F) {
  if (Fuel == 0) {
    Stats.FuelExhausted = true;
    return AbstractValue::unknown();
  }
  --Fuel;

  switch (E->getKind()) {
  case NodeKind::IntLiteralExpr:
    return literalInt(cast<IntLiteralExpr>(E)->Value);
  case NodeKind::LongLiteralExpr:
    return literalInt(cast<LongLiteralExpr>(E)->Value);
  case NodeKind::StringLiteralExpr:
    return literalStr(cast<StringLiteralExpr>(E)->Value);
  case NodeKind::CharLiteralExpr:
    return Opts.Abstraction == BaseAbstraction::AllTop
               ? AbstractValue::byteTop()
               : AbstractValue::byteConst();
  case NodeKind::BoolLiteralExpr:
    return literalInt(cast<BoolLiteralExpr>(E)->Value ? 1 : 0);
  case NodeKind::NullLiteralExpr:
    return AbstractValue::null();
  case NodeKind::ThisExpr:
    return F.ThisVal;
  case NodeKind::NameExpr:
    return evalName(cast<NameExpr>(E), State, F);
  case NodeKind::FieldAccessExpr:
    return evalFieldAccess(cast<FieldAccessExpr>(E), State, F);
  case NodeKind::MethodCallExpr:
    return evalCall(cast<MethodCallExpr>(E), State, F);
  case NodeKind::NewObjectExpr:
    return evalNewObject(cast<NewObjectExpr>(E), State, F);
  case NodeKind::NewArrayExpr:
    return evalNewArray(cast<NewArrayExpr>(E), State, F);
  case NodeKind::ArrayInitExpr:
    return evalArrayInit(cast<ArrayInitExpr>(E), State, F);
  case NodeKind::ArrayAccessExpr: {
    const auto *Access = cast<ArrayAccessExpr>(E);
    AbstractValue Base = evalExpr(Access->Base, State, F);
    AbstractValue Index = evalExpr(Access->Index, State, F);
    switch (Base.kind()) {
    case AVKind::IntArrayConst: {
      const auto &Elems = Base.intElements();
      if (Index.kind() == AVKind::IntConst && Index.intValue() >= 0 &&
          static_cast<std::size_t>(Index.intValue()) < Elems.size())
        return AbstractValue::intConst(Elems[Index.intValue()]);
      return AbstractValue::intTop();
    }
    case AVKind::StrArrayConst: {
      const auto &Elems = Base.strElements();
      if (Index.kind() == AVKind::IntConst && Index.intValue() >= 0 &&
          static_cast<std::size_t>(Index.intValue()) < Elems.size())
        return AbstractValue::strConst(Elems[Index.intValue()]);
      return AbstractValue::strTop();
    }
    case AVKind::IntArrayTop:
      return AbstractValue::intTop();
    case AVKind::StrArrayTop:
      return AbstractValue::strTop();
    case AVKind::ByteArrayConst:
      return AbstractValue::byteConst();
    case AVKind::ByteArrayTop:
      return AbstractValue::byteTop();
    default:
      return AbstractValue::unknown();
    }
  }
  case NodeKind::AssignExpr: {
    const auto *Assign = cast<AssignExpr>(E);
    AbstractValue Rhs = evalExpr(Assign->Rhs, State, F);
    if (Assign->Op != AssignOp::Assign) {
      // Compound assignment folds through the old value (keeps string
      // concatenation constants alive).
      AbstractValue Old = evalExpr(Assign->Lhs, State, F);
      if (Assign->Op == AssignOp::AddAssign &&
          (Old.kind() == AVKind::StrConst || Rhs.kind() == AVKind::StrConst) &&
          Old.isConstant() && Rhs.isConstant()) {
        Rhs = AbstractValue::strConst(Old.label() + Rhs.label());
      } else if (Old.kind() == AVKind::IntConst &&
                 Rhs.kind() == AVKind::IntConst) {
        std::int64_t Result = Assign->Op == AssignOp::AddAssign
                                  ? Old.intValue() + Rhs.intValue()
                                  : Old.intValue() - Rhs.intValue();
        Rhs = AbstractValue::intConst(Result);
      } else {
        Rhs = AbstractValue::join(Old, Rhs);
      }
    }
    assignTo(Assign->Lhs, Rhs, State, F);
    return Rhs;
  }
  case NodeKind::BinaryExpr:
    return evalBinary(cast<BinaryExpr>(E), State, F);
  case NodeKind::UnaryExpr: {
    const auto *Unary = cast<UnaryExpr>(E);
    AbstractValue V = evalExpr(Unary->Operand, State, F);
    switch (Unary->Op) {
    case UnaryOp::Neg:
      if (V.kind() == AVKind::IntConst)
        return AbstractValue::intConst(-V.intValue());
      return AbstractValue::intTop();
    case UnaryOp::Not:
      if (V.kind() == AVKind::IntConst)
        return AbstractValue::intConst(V.intValue() == 0 ? 1 : 0);
      return AbstractValue::intTop();
    case UnaryOp::BitNot:
      if (V.kind() == AVKind::IntConst)
        return AbstractValue::intConst(~V.intValue());
      return AbstractValue::intTop();
    case UnaryOp::PreInc:
    case UnaryOp::PreDec: {
      AbstractValue NewVal =
          V.kind() == AVKind::IntConst
              ? AbstractValue::intConst(V.intValue() +
                                        (Unary->Op == UnaryOp::PreInc ? 1
                                                                      : -1))
              : AbstractValue::intTop();
      assignTo(Unary->Operand, NewVal, State, F);
      return NewVal;
    }
    }
    return AbstractValue::unknown();
  }
  case NodeKind::CastExpr: {
    const auto *Cast = cast<CastExpr>(E);
    return coerce(evalExpr(Cast->Operand, State, F), Cast->Type);
  }
  case NodeKind::ConditionalExpr: {
    const auto *Cond = cast<ConditionalExpr>(E);
    AbstractValue C = evalExpr(Cond->Cond, State, F);
    // A constant condition selects one arm (and suppresses the other
    // arm's side effects), matching the If-statement pruning.
    if (C.kind() == AVKind::IntConst)
      return evalExpr(C.intValue() != 0 ? Cond->TrueExpr : Cond->FalseExpr,
                      State, F);
    AbstractValue T = evalExpr(Cond->TrueExpr, State, F);
    AbstractValue Fv = evalExpr(Cond->FalseExpr, State, F);
    return AbstractValue::join(T, Fv);
  }
  case NodeKind::InstanceofExpr:
    evalExpr(cast<InstanceofExpr>(E)->Operand, State, F);
    return AbstractValue::intTop();
  default:
    assert(false && "unhandled expression kind");
    return AbstractValue::unknown();
  }
}

AbstractValue Engine::evalName(const NameExpr *Name, ExecState &State,
                               Frame &F) {
  auto Local = State.Locals.find(Name->Name);
  if (Local != State.Locals.end())
    return Local->second;

  if (F.CurrentClass) {
    if (const FieldDecl *Field = lookupField(F.CurrentClass, Name->Name)) {
      if (Field->Modifiers & ModStatic) {
        auto It = State.Statics.find({F.CurrentClass->Name, Field->Name});
        if (It != State.Statics.end())
          return It->second;
        return coerce(AbstractValue::unknown(), Field->Type);
      }
      if (F.ThisVal.isTrackedObject()) {
        auto It = State.Fields.find({F.ThisVal.objectId(), Name->Name});
        if (It != State.Fields.end())
          return It->second;
      }
      return coerce(AbstractValue::unknown(), Field->Type);
    }
  }
  return AbstractValue::unknown();
}

AbstractValue Engine::evalFieldAccess(const FieldAccessExpr *Access,
                                      ExecState &State, Frame &F) {
  // Class-qualified constant or static field.
  if (auto TypeName = exprAsTypeName(Access->Base, State, F)) {
    if (auto Const = Api.lookupConstant(*TypeName, Access->Name))
      return literalInt(*Const, Access->Name);
    if (const ClassDecl *Class = lookupProgramClass(*TypeName)) {
      if (const FieldDecl *Field = lookupField(Class, Access->Name)) {
        auto It = State.Statics.find({Class->Name, Field->Name});
        if (It != State.Statics.end())
          return It->second;
        return coerce(AbstractValue::unknown(), Field->Type);
      }
    }
    return AbstractValue::unknown();
  }

  AbstractValue Base = evalExpr(Access->Base, State, F);
  if (Access->Name == "length") {
    switch (Base.kind()) {
    case AVKind::IntArrayConst:
      return AbstractValue::intConst(
          static_cast<std::int64_t>(Base.intElements().size()));
    case AVKind::StrArrayConst:
      return AbstractValue::intConst(
          static_cast<std::int64_t>(Base.strElements().size()));
    case AVKind::IntArrayTop:
    case AVKind::StrArrayTop:
    case AVKind::ByteArrayConst:
    case AVKind::ByteArrayTop:
      return AbstractValue::intTop();
    default:
      break;
    }
  }
  if (Base.isTrackedObject()) {
    auto It = State.Fields.find({Base.objectId(), Access->Name});
    if (It != State.Fields.end())
      return It->second;
    if (const ClassDecl *Class =
            lookupProgramClass(Objects.get(Base.objectId()).TypeName))
      if (const FieldDecl *Field = lookupField(Class, Access->Name))
        return coerce(AbstractValue::unknown(), Field->Type);
  }
  return AbstractValue::unknown();
}

void Engine::assignTo(const Expr *Lhs, AbstractValue Value, ExecState &State,
                      Frame &F) {
  if (const auto *Name = dyn_cast<NameExpr>(Lhs)) {
    auto Local = State.Locals.find(Name->Name);
    if (Local != State.Locals.end()) {
      auto DeclType = State.LocalTypes.find(Name->Name);
      Local->second = DeclType != State.LocalTypes.end()
                          ? coerce(std::move(Value), *DeclType->second)
                          : std::move(Value);
      return;
    }
    if (F.CurrentClass) {
      if (const FieldDecl *Field = lookupField(F.CurrentClass, Name->Name)) {
        Value = coerce(std::move(Value), Field->Type);
        if (Field->Modifiers & ModStatic) {
          State.Statics[{F.CurrentClass->Name, Field->Name}] = std::move(Value);
        } else if (F.ThisVal.isTrackedObject()) {
          State.Fields[{F.ThisVal.objectId(), Name->Name}] = std::move(Value);
        }
        return;
      }
    }
    State.Locals[Name->Name] = std::move(Value);
    return;
  }
  if (const auto *Access = dyn_cast<FieldAccessExpr>(Lhs)) {
    if (auto TypeName = exprAsTypeName(Access->Base, State, F)) {
      if (const ClassDecl *Class = lookupProgramClass(*TypeName)) {
        if (const FieldDecl *Field = lookupField(Class, Access->Name))
          State.Statics[{Class->Name, Field->Name}] =
              coerce(std::move(Value), Field->Type);
      }
      return;
    }
    AbstractValue Base = evalExpr(Access->Base, State, F);
    if (Base.isTrackedObject())
      State.Fields[{Base.objectId(), Access->Name}] = std::move(Value);
    return;
  }
  if (const auto *Access = dyn_cast<ArrayAccessExpr>(Lhs)) {
    // Element store: a write of a non-constant degrades the whole array.
    AbstractValue Base = evalExpr(Access->Base, State, F);
    evalExpr(Access->Index, State, F);
    if (!Value.isConstant()) {
      AbstractValue Degraded;
      switch (Base.kind()) {
      case AVKind::ByteArrayConst:
        Degraded = AbstractValue::byteArrayTop();
        break;
      case AVKind::IntArrayConst:
        Degraded = AbstractValue::intArrayTop();
        break;
      case AVKind::StrArrayConst:
        Degraded = AbstractValue::strArrayTop();
        break;
      default:
        return;
      }
      assignTo(Access->Base, Degraded, State, F);
    }
    return;
  }
  // Other l-values (casts, calls) — evaluate for effects and drop.
  evalExpr(Lhs, State, F);
}

AbstractValue Engine::evalBinary(const BinaryExpr *Bin, ExecState &State,
                                 Frame &F) {
  AbstractValue L = evalExpr(Bin->Lhs, State, F);
  AbstractValue R = evalExpr(Bin->Rhs, State, F);

  if (Bin->Op == BinaryOp::Add) {
    // Java string concatenation folds constants.
    bool Stringy =
        L.kind() == AVKind::StrConst || R.kind() == AVKind::StrConst ||
        L.kind() == AVKind::StrTop || R.kind() == AVKind::StrTop;
    if (Stringy) {
      if ((L.kind() == AVKind::StrConst || L.kind() == AVKind::IntConst) &&
          (R.kind() == AVKind::StrConst || R.kind() == AVKind::IntConst))
        return AbstractValue::strConst(L.label() + R.label());
      return AbstractValue::strTop();
    }
  }

  if (L.kind() == AVKind::IntConst && R.kind() == AVKind::IntConst) {
    std::int64_t A = L.intValue(), B = R.intValue();
    switch (Bin->Op) {
    case BinaryOp::Add:
      return AbstractValue::intConst(A + B);
    case BinaryOp::Sub:
      return AbstractValue::intConst(A - B);
    case BinaryOp::Mul:
      return AbstractValue::intConst(A * B);
    case BinaryOp::Div:
      return B == 0 ? AbstractValue::intTop() : AbstractValue::intConst(A / B);
    case BinaryOp::Rem:
      return B == 0 ? AbstractValue::intTop() : AbstractValue::intConst(A % B);
    case BinaryOp::Lt:
      return AbstractValue::intConst(A < B);
    case BinaryOp::Gt:
      return AbstractValue::intConst(A > B);
    case BinaryOp::Le:
      return AbstractValue::intConst(A <= B);
    case BinaryOp::Ge:
      return AbstractValue::intConst(A >= B);
    case BinaryOp::Eq:
      return AbstractValue::intConst(A == B);
    case BinaryOp::Ne:
      return AbstractValue::intConst(A != B);
    case BinaryOp::And:
      return AbstractValue::intConst(A != 0 && B != 0);
    case BinaryOp::Or:
      return AbstractValue::intConst(A != 0 || B != 0);
    case BinaryOp::BitAnd:
      return AbstractValue::intConst(A & B);
    case BinaryOp::BitOr:
      return AbstractValue::intConst(A | B);
    case BinaryOp::BitXor:
      return AbstractValue::intConst(A ^ B);
    case BinaryOp::Shl:
      return AbstractValue::intConst(A << (B & 63));
    case BinaryOp::Shr:
      return AbstractValue::intConst(A >> (B & 63));
    }
  }
  return AbstractValue::intTop();
}

AbstractValue Engine::evalArrayInit(const ArrayInitExpr *Init,
                                    ExecState &State, Frame &F) {
  std::vector<std::int64_t> Ints;
  std::vector<std::string> Strs;
  bool AllInt = true, AllStr = true, AllConst = true;
  for (const Expr *Elem : Init->Elements) {
    AbstractValue V = evalExpr(Elem, State, F);
    AllConst = AllConst && V.isConstant();
    if (V.kind() == AVKind::IntConst)
      Ints.push_back(V.intValue());
    else if (V.kind() == AVKind::ByteConst)
      Ints.push_back(0); // byte constants carry no value under Figure 3
    else
      AllInt = false;
    if (V.kind() == AVKind::StrConst)
      Strs.push_back(V.strValue());
    else
      AllStr = false;
  }
  if (Opts.Abstraction == BaseAbstraction::AllTop)
    return AbstractValue::unknown();
  if (AllInt)
    return AbstractValue::intArrayConst(std::move(Ints));
  if (AllStr)
    return AbstractValue::strArrayConst(std::move(Strs));
  return AllConst ? AbstractValue::unknownConst() : AbstractValue::unknown();
}

AbstractValue Engine::evalNewArray(const NewArrayExpr *New, ExecState &State,
                                   Frame &F) {
  for (const Expr *Dim : New->DimExprs)
    evalExpr(Dim, State, F);
  AbstractValue Init = New->Init
                           ? evalExpr(New->Init, State, F)
                           : AbstractValue::unknownConst(); // zero-filled
  // The element type may spell no dims of its own; the result is an array.
  return coerce(std::move(Init), New->ElemType.Name, /*IsArray=*/true);
}

AbstractValue Engine::applyApiCall(ExecState &State,
                                   const apimodel::ApiMethod *M,
                                   const AbstractValue *Receiver,
                                   const std::vector<AbstractValue> &Args,
                                   SourceLocation Loc) {
  const std::string &Sig = M->signature();
  if (M->IsFactory) {
    if (!objectBudgetLeft()) {
      recordOnObjectArgs(State, Sig, Args);
      return AbstractValue::topObject(M->ClassName);
    }
    unsigned ObjId = Objects.getOrCreate(Loc, M->ClassName);
    record(State, ObjId, Sig, Args);
    recordOnObjectArgs(State, Sig, Args);
    return AbstractValue::object(ObjId, M->ClassName);
  }
  if (Receiver && Receiver->isTrackedObject())
    record(State, Receiver->objectId(), Sig, Args);
  recordOnObjectArgs(State, Sig, Args);
  return returnTypeToValue(M->ReturnType);
}

AbstractValue Engine::evalStringMethod(std::string_view Name,
                                       const AbstractValue &Receiver,
                                       const std::vector<AbstractValue> &Args) {
  bool ConstRecv = Receiver.kind() == AVKind::StrConst;
  if (Name == "getBytes" || Name == "toCharArray")
    return ConstRecv ? AbstractValue::byteArrayConst()
                     : AbstractValue::byteArrayTop();
  if (Name == "length")
    return ConstRecv ? AbstractValue::intConst(static_cast<std::int64_t>(
                           Receiver.strValue().size()))
                     : AbstractValue::intTop();
  if (Name == "toUpperCase" || Name == "toLowerCase" || Name == "trim" ||
      Name == "intern") {
    if (!ConstRecv)
      return AbstractValue::strTop();
    std::string S = Receiver.strValue();
    if (Name == "toUpperCase")
      for (char &C : S)
        C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
    else if (Name == "toLowerCase")
      for (char &C : S)
        C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    return AbstractValue::strConst(std::move(S));
  }
  if (Name == "substring" && ConstRecv && !Args.empty() &&
      Args[0].kind() == AVKind::IntConst) {
    const std::string &S = Receiver.strValue();
    std::int64_t Start = Args[0].intValue();
    std::int64_t End = Args.size() > 1 && Args[1].kind() == AVKind::IntConst
                           ? Args[1].intValue()
                           : static_cast<std::int64_t>(S.size());
    if (Start >= 0 && End >= Start &&
        End <= static_cast<std::int64_t>(S.size()))
      return AbstractValue::strConst(S.substr(Start, End - Start));
    return AbstractValue::strTop();
  }
  if (Name == "equals" || Name == "equalsIgnoreCase" || Name == "contains" ||
      Name == "startsWith" || Name == "endsWith" || Name == "isEmpty")
    return AbstractValue::intTop();
  if (Name == "concat") {
    if (ConstRecv && !Args.empty() && Args[0].kind() == AVKind::StrConst)
      return AbstractValue::strConst(Receiver.strValue() +
                                     Args[0].strValue());
    return AbstractValue::strTop();
  }
  return AbstractValue::strTop();
}

std::optional<AbstractValue>
Engine::evalKnownStaticCall(std::string_view ClassName, std::string_view Name,
                            const std::vector<AbstractValue> &Args) {
  auto Arg = [&](std::size_t I) -> const AbstractValue * {
    return I < Args.size() ? &Args[I] : nullptr;
  };

  if (ClassName == "Integer" || ClassName == "Long" ||
      ClassName == "Short" || ClassName == "Byte") {
    if ((Name == "parseInt" || Name == "parseLong" || Name == "valueOf" ||
         Name == "parseShort" || Name == "parseByte") &&
        Arg(0) && Arg(0)->kind() == AVKind::StrConst) {
      errno = 0;
      char *End = nullptr;
      const std::string &Text = Arg(0)->strValue();
      long long Value = std::strtoll(Text.c_str(), &End, 10);
      if (End && *End == '\0' && !Text.empty() && errno == 0)
        return AbstractValue::intConst(Value);
      return AbstractValue::intTop();
    }
    if (Name == "toString" && Arg(0) && Arg(0)->kind() == AVKind::IntConst)
      return AbstractValue::strConst(std::to_string(Arg(0)->intValue()));
  }

  if (ClassName == "String" && Name == "valueOf" && Arg(0)) {
    if (Arg(0)->kind() == AVKind::IntConst)
      return AbstractValue::strConst(Arg(0)->symbol().empty()
                                         ? std::to_string(Arg(0)->intValue())
                                         : Arg(0)->label());
    if (Arg(0)->kind() == AVKind::StrConst)
      return *Arg(0);
    return AbstractValue::strTop();
  }

  if (ClassName == "Math" && Arg(0) &&
      Arg(0)->kind() == AVKind::IntConst) {
    std::int64_t A = Arg(0)->intValue();
    if (Name == "abs")
      return AbstractValue::intConst(A < 0 ? -A : A);
    if ((Name == "min" || Name == "max") && Arg(1) &&
        Arg(1)->kind() == AVKind::IntConst) {
      std::int64_t B = Arg(1)->intValue();
      return AbstractValue::intConst(Name == "min" ? std::min(A, B)
                                                   : std::max(A, B));
    }
  }
  return std::nullopt;
}

AbstractValue
Engine::unknownCallResult(const AbstractValue *Receiver,
                          const std::vector<AbstractValue> &Args) {
  bool AllConst = !Receiver || Receiver->isConstant();
  for (const AbstractValue &Arg : Args)
    AllConst = AllConst && Arg.isConstant();
  return AllConst ? AbstractValue::unknownConst() : AbstractValue::unknown();
}

void Engine::initializeFields(const ClassDecl *Class, unsigned ThisId,
                              ExecState &State, Frame &F) {
  for (const FieldDecl *Field : Class->Fields) {
    AbstractValue Value = Field->Init
                              ? evalExpr(Field->Init, State, F)
                              : coerce(AbstractValue::unknown(), Field->Type);
    Value = coerce(std::move(Value), Field->Type);
    if (Field->Modifiers & ModStatic)
      State.Statics[{Class->Name, Field->Name}] = std::move(Value);
    else
      State.Fields[{ThisId, Field->Name}] = std::move(Value);
  }
}

AbstractValue Engine::inlineCall(const MethodDecl *M, const ClassDecl *Class,
                                 AbstractValue ThisVal,
                                 const std::vector<AbstractValue> &Args,
                                 ExecState &State, Frame &F) {
  assert(M->Body && "inlineCall requires a body");
  if (F.Depth >= Opts.MaxInlineDepth || F.onStack(M))
    return returnTypeToValue(baseNameOf(M->ReturnType.Name));

  // Fresh locals for the callee; caller locals restored afterwards.
  auto SavedLocals = std::move(State.Locals);
  auto SavedLocalTypes = std::move(State.LocalTypes);
  State.Locals.clear();
  State.LocalTypes.clear();
  for (std::size_t I = 0; I < M->Params.size(); ++I) {
    AbstractValue Arg = I < Args.size()
                            ? Args[I]
                            : coerce(AbstractValue::unknown(),
                                     M->Params[I].Type);
    State.Locals[M->Params[I].Name] =
        coerce(std::move(Arg), M->Params[I].Type);
    State.LocalTypes[M->Params[I].Name] = &M->Params[I].Type;
  }

  Frame Callee;
  Callee.CurrentClass = Class;
  Callee.ThisVal = std::move(ThisVal);
  Callee.Depth = F.Depth + 1;
  Callee.Method = M;
  Callee.Caller = &F;

  // Branches inside an inlined call join rather than fork (see header).
  std::vector<ExecState> States;
  States.push_back(std::move(State));
  execStmt(M->Body, States, Callee);
  ExecState Joined = std::move(States.front());
  for (std::size_t I = 1; I < States.size(); ++I)
    joinInto(Joined, States[I]);

  AbstractValue Ret = Joined.RetValue;
  Joined.Returned = false;
  Joined.RetValue = AbstractValue::unknown();
  Joined.Locals = std::move(SavedLocals);
  Joined.LocalTypes = std::move(SavedLocalTypes);
  State = std::move(Joined);
  return Ret;
}

AbstractValue Engine::evalNewObject(const NewObjectExpr *New, ExecState &State,
                                    Frame &F) {
  std::vector<AbstractValue> Args;
  Args.reserve(New->Args.size());
  for (const Expr *Arg : New->Args)
    Args.push_back(evalExpr(Arg, State, F));

  std::string_view TypeName = baseNameOf(New->Type.Name);

  // Past the object budget every allocation degrades to an untracked top
  // object: no new usage set, but argument labels survive.
  if (!objectBudgetLeft()) {
    recordOnObjectArgs(State, unmodeledSig(TypeName, "<init>", Args.size()),
                       Args);
    return AbstractValue::topObject(TypeName);
  }

  // API class constructor.
  if (const apimodel::ApiClass *ApiClass = Api.lookupClass(TypeName)) {
    const apimodel::ApiMethod *Ctor = Api.lookupMethod(
        TypeName, "<init>", static_cast<unsigned>(Args.size()));
    if (Ctor)
      return applyApiCall(State, Ctor, nullptr, Args, New->getLoc());
    // Known class without a modeled constructor: still track the site.
    unsigned ObjId = Objects.getOrCreate(New->getLoc(), ApiClass->Name);
    std::string Sig = unmodeledSig(TypeName, "<init>", Args.size());
    record(State, ObjId, Sig, Args);
    recordOnObjectArgs(State, Sig, Args);
    return AbstractValue::object(ObjId, ApiClass->Name);
  }

  // Program-defined class: allocate, run field initializers, inline ctor.
  if (const ClassDecl *Class = lookupProgramClass(TypeName)) {
    unsigned ObjId = Objects.getOrCreate(New->getLoc(), TypeName);
    AbstractValue Obj = AbstractValue::object(ObjId, TypeName);
    initializeFields(Class, ObjId, State, F);
    if (const MethodDecl *Ctor =
            lookupProgramMethod(Class, Class->Name, Args.size()))
      if (Ctor->IsConstructor && Ctor->Body)
        inlineCall(Ctor, Class, Obj, Args, State, F);
    return Obj;
  }

  // Unknown library class: track the site so argument relationships (e.g.
  // a SecretKeySpec passed to an unknown wrapper) keep their labels.
  unsigned ObjId = Objects.getOrCreate(New->getLoc(), TypeName);
  std::string Sig = unmodeledSig(TypeName, "<init>", Args.size());
  record(State, ObjId, Sig, Args);
  recordOnObjectArgs(State, Sig, Args);
  return AbstractValue::object(ObjId, TypeName);
}

AbstractValue Engine::evalCall(const MethodCallExpr *Call, ExecState &State,
                               Frame &F) {
  // Constructor delegation.
  if (!Call->Base && (Call->Name == "this" || Call->Name == "super")) {
    std::vector<AbstractValue> Args;
    for (const Expr *Arg : Call->Args)
      Args.push_back(evalExpr(Arg, State, F));
    if (Call->Name == "this" && F.CurrentClass) {
      if (const MethodDecl *Ctor = lookupProgramMethod(
              F.CurrentClass, F.CurrentClass->Name, Args.size()))
        if (Ctor->IsConstructor && Ctor->Body)
          return inlineCall(Ctor, F.CurrentClass, F.ThisVal, Args, State, F);
    }
    if (Call->Name == "super" && F.CurrentClass &&
        !F.CurrentClass->SuperClass.empty()) {
      if (const ClassDecl *Super =
              lookupProgramClass(F.CurrentClass->SuperClass))
        if (const MethodDecl *Ctor =
                lookupProgramMethod(Super, Super->Name, Args.size()))
          if (Ctor->IsConstructor && Ctor->Body)
            return inlineCall(Ctor, Super, F.ThisVal, Args, State, F);
    }
    return AbstractValue::unknown();
  }

  // Static call via a class-denoting expression.
  std::optional<std::string_view> StaticClass;
  if (Call->Base)
    StaticClass = exprAsTypeName(Call->Base, State, F);

  std::vector<AbstractValue> Args;
  AbstractValue Receiver;
  [[maybe_unused]] bool HaveReceiver = false;
  if (Call->Base && !StaticClass) {
    Receiver = evalExpr(Call->Base, State, F);
    HaveReceiver = true;
  }
  Args.reserve(Call->Args.size());
  for (const Expr *Arg : Call->Args)
    Args.push_back(evalExpr(Arg, State, F));

  auto HandleRandomizedArg = [&](const apimodel::ApiMethod *M) {
    // SecureRandom.nextBytes(buf) fills its argument with fresh entropy —
    // the buffer is no longer a program constant.
    if (M->ClassName == "SecureRandom" && M->Name == "nextBytes" &&
        !Call->Args.empty())
      assignTo(Call->Args.front(), AbstractValue::byteArrayTop(), State, F);
  };

  if (StaticClass) {
    if (Api.lookupClass(*StaticClass)) {
      if (const apimodel::ApiMethod *M =
              Api.lookupMethod(*StaticClass, Call->Name,
                               static_cast<unsigned>(Args.size()))) {
        HandleRandomizedArg(M);
        return applyApiCall(State, M, nullptr, Args, Call->getLoc());
      }
      return unknownCallResult(nullptr, Args);
    }
    if (const ClassDecl *Class = lookupProgramClass(*StaticClass)) {
      if (const MethodDecl *M =
              lookupProgramMethod(Class, Call->Name, Args.size()))
        return inlineCall(M, Class, AbstractValue::null(), Args, State, F);
      return unknownCallResult(nullptr, Args);
    }
    // Well-known JDK statics fold constants (`Integer.parseInt("1000")`
    // commonly feeds iteration counts); everything else follows the
    // unknown-call rule (Hex, Base64, Arrays, ...).
    if (auto Known = evalKnownStaticCall(*StaticClass, Call->Name, Args))
      return *Known;
    return unknownCallResult(nullptr, Args);
  }

  if (!Call->Base) {
    // Unqualified: method of the current class.
    if (F.CurrentClass)
      if (const MethodDecl *M =
              lookupProgramMethod(F.CurrentClass, Call->Name, Args.size()))
        return inlineCall(M, F.CurrentClass, F.ThisVal, Args, State, F);
    return unknownCallResult(nullptr, Args);
  }

  assert(HaveReceiver && "instance call must have evaluated its receiver");

  // String receivers get the built-in string semantics.
  if (Receiver.kind() == AVKind::StrConst || Receiver.kind() == AVKind::StrTop)
    return evalStringMethod(Call->Name, Receiver, Args);

  if (Receiver.isTrackedObject()) {
    const AbstractObject &Obj = Objects.get(Receiver.objectId());
    if (Api.lookupClass(Obj.TypeName)) {
      if (const apimodel::ApiMethod *M =
              Api.lookupMethod(Obj.TypeName, Call->Name,
                               static_cast<unsigned>(Args.size()))) {
        HandleRandomizedArg(M);
        return applyApiCall(State, M, &Receiver, Args, Call->getLoc());
      }
      // Unmodeled method of a modeled class: synthesize a signature so
      // the feature is not lost.
      std::string Sig = unmodeledSig(Obj.TypeName, Call->Name, Args.size());
      record(State, Receiver.objectId(), Sig, Args);
      recordOnObjectArgs(State, Sig, Args);
      return unknownCallResult(&Receiver, Args);
    }
    if (const ClassDecl *Class = lookupProgramClass(Obj.TypeName)) {
      if (const MethodDecl *M =
              lookupProgramMethod(Class, Call->Name, Args.size()))
        return inlineCall(M, Class, Receiver, Args, State, F);
      return unknownCallResult(&Receiver, Args);
    }
    // Unknown library object (tracked for labeling): record the call.
    std::string Sig = unmodeledSig(Obj.TypeName, Call->Name, Args.size());
    record(State, Receiver.objectId(), Sig, Args);
    recordOnObjectArgs(State, Sig, Args);
    return unknownCallResult(&Receiver, Args);
  }

  if (Receiver.kind() == AVKind::TopObject) {
    // Calls on unknown-allocation objects: type the result via the model
    // when possible; no usage is recorded (Tobj has no usage set).
    if (const apimodel::ApiMethod *M =
            Api.lookupMethod(Receiver.typeName(), Call->Name,
                             static_cast<unsigned>(Args.size()))) {
      HandleRandomizedArg(M);
      recordOnObjectArgs(State, M->signature(), Args);
      return returnTypeToValue(M->ReturnType);
    }
    return unknownCallResult(&Receiver, Args);
  }

  return unknownCallResult(&Receiver, Args);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

AnalysisResult Engine::run(const CompilationUnit *Unit) {
  for (const ClassDecl *Class : Unit->Types)
    indexClasses(Class);
  collectCallTargets(Unit);

  AnalysisResult Result;
  for (const auto &[Class, Method] : findEntryMethods()) {
    Fuel = Opts.Fuel;
    ++Stats.Entries;

    ExecState Initial;
    Frame F;
    F.CurrentClass = Class;
    F.Method = Method;

    // Materialize a `this` instance (also for static entries, so field
    // initializers with allocation sites are analyzed exactly once per
    // entry). Past the object budget the entry runs without a tracked
    // receiver — degraded but deterministic.
    if (objectBudgetLeft()) {
      unsigned ThisId = Objects.getOrCreate(Class->getLoc(), Class->Name);
      F.ThisVal = (Method->Modifiers & ModStatic)
                      ? AbstractValue::null()
                      : AbstractValue::object(ThisId, Class->Name);
      initializeFields(Class, ThisId, Initial, F);
    } else {
      F.ThisVal = (Method->Modifiers & ModStatic)
                      ? AbstractValue::null()
                      : AbstractValue::topObject(Class->Name);
    }

    for (const ParamDecl &Param : Method->Params) {
      Initial.Locals[Param.Name] =
          coerce(AbstractValue::unknown(), Param.Type);
      Initial.LocalTypes[Param.Name] = &Param.Type;
    }

    std::vector<ExecState> States;
    States.push_back(std::move(Initial));
    execStmt(Method->Body, States, F);
    Stats.StepsUsed += Opts.Fuel - Fuel;

    for (ExecState &State : States)
      if (!State.Log.empty())
        Result.Executions.push_back(std::move(State.Log));
  }
  Stats.ObjectsTracked = Objects.size();
  Result.Objects = std::move(Objects);
  Result.Stats = Stats;
  return Result;
}

} // namespace

AbstractInterpreter::AbstractInterpreter(const apimodel::CryptoApiModel &Api,
                                         AnalysisOptions Opts)
    : Api(Api), Opts(Opts) {}

AnalysisResult AbstractInterpreter::analyze(const CompilationUnit *Unit) {
  Engine E(Api, Opts);
  return E.run(Unit);
}
