//===- apimodel/CryptoApiModel.h - Java Crypto API signatures -------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A declarative model of the Java Cryptography Architecture surface the
/// analysis understands: class names, method signatures, factory methods,
/// and API integer constants (e.g. Cipher.ENCRYPT_MODE). The analyzer
/// consults this model to type API call results and to resolve qualified
/// constants; it never executes any cryptography.
///
/// The model also distinguishes the six *target* classes of the paper's
/// case study (Figure 5) from auxiliary classes such as Mac and
/// KeyGenerator that appear in rules (e.g. R13).
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_APIMODEL_CRYPTOAPIMODEL_H
#define DIFFCODE_APIMODEL_CRYPTOAPIMODEL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace diffcode {
namespace apimodel {

/// Hash for string-keyed maps looked up by std::string_view, so a lookup
/// builds no std::string.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view Name) const {
    return std::hash<std::string_view>{}(Name);
  }
};

/// A map keyed by names and looked up by views.
template <typename V>
using NameMap = std::unordered_map<std::string, V, NameHash, std::equal_to<>>;

/// One method of an API class. Constructors use the JVM-style name
/// "<init>". Overloads are distinguished by arity only — sufficient for
/// the JCA subset where no two same-arity overloads differ in ways the
/// abstraction can observe.
struct ApiMethod {
  std::string ClassName;
  std::string Name;
  std::vector<std::string> ParamTypes;
  std::string ReturnType; ///< "void", a base type, or an API class name.
  bool IsStatic = false;
  /// True when the call yields a fresh instance of ClassName (constructors
  /// and getInstance-style factories) — these create abstract objects.
  bool IsFactory = false;

  unsigned arity() const {
    return static_cast<unsigned>(ParamTypes.size());
  }

  /// Signature string used as a DAG node label, e.g.
  /// "Cipher.getInstance/1". Empty until CryptoApiModel::addClass, which
  /// computes it once for every method it registers.
  const std::string &signature() const { return Signature; }

  /// The string signature() returns.
  std::string Signature;
};

/// One API class with its methods and integer constants.
struct ApiClass {
  std::string Name;
  bool IsTarget = false;
  std::vector<ApiMethod> Methods;
  NameMap<std::int64_t> IntConstants;
};

/// The whole modeled API. Immutable after construction; the analysis
/// shares one instance.
class CryptoApiModel {
public:
  /// The Java Crypto API model used throughout the paper reproduction.
  static const CryptoApiModel &javaCryptoApi();

  /// Looks up a class by unqualified name; null when unknown.
  const ApiClass *lookupClass(std::string_view Name) const;

  /// Looks up a method by class, name, and arity; falls back to the
  /// closest arity when no exact overload exists (partial programs often
  /// call overloads the model elides). Null when the class has no method
  /// of that name.
  const ApiMethod *lookupMethod(std::string_view ClassName,
                                std::string_view MethodName,
                                unsigned Arity) const;

  /// Resolves `ClassName.ConstName` (e.g. Cipher.ENCRYPT_MODE).
  std::optional<std::int64_t> lookupConstant(std::string_view ClassName,
                                             std::string_view ConstName) const;

  /// True for the six target classes of the case study (Figure 5).
  bool isTargetClass(std::string_view Name) const;

  /// The target class names in Figure 5 order.
  const std::vector<std::string> &targetClasses() const {
    return Targets;
  }

  /// Registers a class (used by the builder and by tests extending the
  /// model).
  void addClass(ApiClass Class);

private:
  NameMap<ApiClass> Classes;
  std::vector<std::string> Targets;
};

} // namespace apimodel
} // namespace diffcode

#endif // DIFFCODE_APIMODEL_CRYPTOAPIMODEL_H
