//===- apimodel/CryptoApiModel.cpp -----------------------------------------===//

#include "apimodel/CryptoApiModel.h"

#include <cassert>
#include <limits>

using namespace diffcode::apimodel;

void CryptoApiModel::addClass(ApiClass Class) {
  for (ApiMethod &M : Class.Methods)
    M.Signature = M.ClassName + "." + M.Name + "/" + std::to_string(M.arity());
  if (Class.IsTarget)
    Targets.push_back(Class.Name);
  Classes.emplace(Class.Name, std::move(Class));
}

const ApiClass *CryptoApiModel::lookupClass(std::string_view Name) const {
  auto It = Classes.find(Name);
  return It == Classes.end() ? nullptr : &It->second;
}

const ApiMethod *CryptoApiModel::lookupMethod(std::string_view ClassName,
                                              std::string_view MethodName,
                                              unsigned Arity) const {
  const ApiClass *Class = lookupClass(ClassName);
  if (!Class)
    return nullptr;
  const ApiMethod *Best = nullptr;
  unsigned BestGap = std::numeric_limits<unsigned>::max();
  for (const ApiMethod &M : Class->Methods) {
    if (M.Name != MethodName)
      continue;
    unsigned Gap = M.arity() > Arity ? M.arity() - Arity : Arity - M.arity();
    if (Gap < BestGap) {
      BestGap = Gap;
      Best = &M;
    }
  }
  return Best;
}

std::optional<std::int64_t>
CryptoApiModel::lookupConstant(std::string_view ClassName,
                               std::string_view ConstName) const {
  const ApiClass *Class = lookupClass(ClassName);
  if (!Class)
    return std::nullopt;
  auto It = Class->IntConstants.find(ConstName);
  if (It == Class->IntConstants.end())
    return std::nullopt;
  return It->second;
}

bool CryptoApiModel::isTargetClass(std::string_view Name) const {
  const ApiClass *Class = lookupClass(Name);
  return Class && Class->IsTarget;
}

namespace {

/// Builder shorthand for one method.
ApiMethod method(std::string ClassName, std::string Name,
                 std::vector<std::string> Params, std::string Ret,
                 bool IsStatic, bool IsFactory) {
  ApiMethod M;
  M.ClassName = std::move(ClassName);
  M.Name = std::move(Name);
  M.ParamTypes = std::move(Params);
  M.ReturnType = std::move(Ret);
  M.IsStatic = IsStatic;
  M.IsFactory = IsFactory;
  return M;
}

CryptoApiModel buildJavaCryptoApi() {
  CryptoApiModel Model;

  // --- Cipher (target) ---------------------------------------------------
  {
    ApiClass C;
    C.Name = "Cipher";
    C.IsTarget = true;
    C.Methods = {
        method("Cipher", "getInstance", {"String"}, "Cipher", true, true),
        method("Cipher", "getInstance", {"String", "String"}, "Cipher", true,
               true),
        method("Cipher", "init", {"int", "Key"}, "void", false, false),
        method("Cipher", "init", {"int", "Key", "AlgorithmParameterSpec"},
               "void", false, false),
        method("Cipher", "init",
               {"int", "Key", "AlgorithmParameterSpec", "SecureRandom"},
               "void", false, false),
        method("Cipher", "doFinal", {}, "byte[]", false, false),
        method("Cipher", "doFinal", {"byte[]"}, "byte[]", false, false),
        method("Cipher", "update", {"byte[]"}, "byte[]", false, false),
        method("Cipher", "wrap", {"Key"}, "byte[]", false, false),
        method("Cipher", "unwrap", {"byte[]", "String", "int"}, "Key", false,
               false),
        method("Cipher", "getIV", {}, "byte[]", false, false),
        method("Cipher", "getBlockSize", {}, "int", false, false),
    };
    C.IntConstants = {{"ENCRYPT_MODE", 1},
                      {"DECRYPT_MODE", 2},
                      {"WRAP_MODE", 3},
                      {"UNWRAP_MODE", 4},
                      {"PUBLIC_KEY", 1},
                      {"PRIVATE_KEY", 2},
                      {"SECRET_KEY", 3}};
    Model.addClass(std::move(C));
  }

  // --- IvParameterSpec (target) -------------------------------------------
  {
    ApiClass C;
    C.Name = "IvParameterSpec";
    C.IsTarget = true;
    C.Methods = {
        method("IvParameterSpec", "<init>", {"byte[]"}, "IvParameterSpec",
               false, true),
        method("IvParameterSpec", "<init>", {"byte[]", "int", "int"},
               "IvParameterSpec", false, true),
        method("IvParameterSpec", "getIV", {}, "byte[]", false, false),
    };
    Model.addClass(std::move(C));
  }

  // --- MessageDigest (target) ----------------------------------------------
  {
    ApiClass C;
    C.Name = "MessageDigest";
    C.IsTarget = true;
    C.Methods = {
        method("MessageDigest", "getInstance", {"String"}, "MessageDigest",
               true, true),
        method("MessageDigest", "getInstance", {"String", "String"},
               "MessageDigest", true, true),
        method("MessageDigest", "update", {"byte[]"}, "void", false, false),
        method("MessageDigest", "digest", {}, "byte[]", false, false),
        method("MessageDigest", "digest", {"byte[]"}, "byte[]", false, false),
        method("MessageDigest", "reset", {}, "void", false, false),
    };
    Model.addClass(std::move(C));
  }

  // --- SecretKeySpec (target) ----------------------------------------------
  {
    ApiClass C;
    C.Name = "SecretKeySpec";
    C.IsTarget = true;
    C.Methods = {
        method("SecretKeySpec", "<init>", {"byte[]", "String"},
               "SecretKeySpec", false, true),
        method("SecretKeySpec", "<init>", {"byte[]", "int", "int", "String"},
               "SecretKeySpec", false, true),
        method("SecretKeySpec", "getEncoded", {}, "byte[]", false, false),
        method("SecretKeySpec", "getAlgorithm", {}, "String", false, false),
    };
    Model.addClass(std::move(C));
  }

  // --- SecureRandom (target) -----------------------------------------------
  {
    ApiClass C;
    C.Name = "SecureRandom";
    C.IsTarget = true;
    C.Methods = {
        method("SecureRandom", "<init>", {}, "SecureRandom", false, true),
        method("SecureRandom", "<init>", {"byte[]"}, "SecureRandom", false,
               true),
        method("SecureRandom", "getInstance", {"String"}, "SecureRandom",
               true, true),
        method("SecureRandom", "getInstance", {"String", "String"},
               "SecureRandom", true, true),
        method("SecureRandom", "getInstanceStrong", {}, "SecureRandom", true,
               true),
        method("SecureRandom", "nextBytes", {"byte[]"}, "void", false, false),
        method("SecureRandom", "setSeed", {"byte[]"}, "void", false, false),
        method("SecureRandom", "setSeed", {"long"}, "void", false, false),
        method("SecureRandom", "generateSeed", {"int"}, "byte[]", false,
               false),
        method("SecureRandom", "nextInt", {}, "int", false, false),
        method("SecureRandom", "nextInt", {"int"}, "int", false, false),
    };
    Model.addClass(std::move(C));
  }

  // --- PBEKeySpec (target) -------------------------------------------------
  {
    ApiClass C;
    C.Name = "PBEKeySpec";
    C.IsTarget = true;
    C.Methods = {
        method("PBEKeySpec", "<init>", {"char[]"}, "PBEKeySpec", false, true),
        method("PBEKeySpec", "<init>", {"char[]", "byte[]", "int"},
               "PBEKeySpec", false, true),
        method("PBEKeySpec", "<init>", {"char[]", "byte[]", "int", "int"},
               "PBEKeySpec", false, true),
        method("PBEKeySpec", "getSalt", {}, "byte[]", false, false),
        method("PBEKeySpec", "getIterationCount", {}, "int", false, false),
    };
    Model.addClass(std::move(C));
  }

  // --- Auxiliary classes (not targets, needed by rules & realistic code) ---
  {
    ApiClass C;
    C.Name = "Mac";
    C.Methods = {
        method("Mac", "getInstance", {"String"}, "Mac", true, true),
        method("Mac", "getInstance", {"String", "String"}, "Mac", true, true),
        method("Mac", "init", {"Key"}, "void", false, false),
        method("Mac", "update", {"byte[]"}, "void", false, false),
        method("Mac", "doFinal", {}, "byte[]", false, false),
        method("Mac", "doFinal", {"byte[]"}, "byte[]", false, false),
    };
    Model.addClass(std::move(C));
  }
  {
    ApiClass C;
    C.Name = "KeyGenerator";
    C.Methods = {
        method("KeyGenerator", "getInstance", {"String"}, "KeyGenerator",
               true, true),
        method("KeyGenerator", "init", {"int"}, "void", false, false),
        method("KeyGenerator", "init", {"int", "SecureRandom"}, "void", false,
               false),
        method("KeyGenerator", "generateKey", {}, "SecretKey", false, false),
    };
    Model.addClass(std::move(C));
  }
  {
    ApiClass C;
    C.Name = "SecretKeyFactory";
    C.Methods = {
        method("SecretKeyFactory", "getInstance", {"String"},
               "SecretKeyFactory", true, true),
        method("SecretKeyFactory", "generateSecret", {"KeySpec"}, "SecretKey",
               false, false),
    };
    Model.addClass(std::move(C));
  }
  {
    ApiClass C;
    C.Name = "KeyPairGenerator";
    C.Methods = {
        method("KeyPairGenerator", "getInstance", {"String"},
               "KeyPairGenerator", true, true),
        method("KeyPairGenerator", "initialize", {"int"}, "void", false,
               false),
        method("KeyPairGenerator", "initialize", {"int", "SecureRandom"},
               "void", false, false),
        method("KeyPairGenerator", "generateKeyPair", {}, "KeyPair", false,
               false),
    };
    Model.addClass(std::move(C));
  }
  {
    ApiClass C;
    C.Name = "PBEParameterSpec";
    C.Methods = {
        method("PBEParameterSpec", "<init>", {"byte[]", "int"},
               "PBEParameterSpec", false, true),
    };
    Model.addClass(std::move(C));
  }
  {
    ApiClass C;
    C.Name = "GCMParameterSpec";
    C.Methods = {
        method("GCMParameterSpec", "<init>", {"int", "byte[]"},
               "GCMParameterSpec", false, true),
    };
    Model.addClass(std::move(C));
  }
  // Opaque value classes: known to the model so object labels carry a
  // type, but with no interesting methods.
  for (const char *Name : {"Key", "SecretKey", "KeySpec", "KeyPair",
                           "AlgorithmParameterSpec", "Provider"}) {
    ApiClass C;
    C.Name = Name;
    Model.addClass(std::move(C));
  }

  return Model;
}

} // namespace

const CryptoApiModel &CryptoApiModel::javaCryptoApi() {
  static const CryptoApiModel Model = buildJavaCryptoApi();
  return Model;
}
