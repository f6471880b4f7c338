//===- analysis/AbstractValue.cpp ------------------------------------------===//

#include "analysis/AbstractValue.h"

#include <cassert>

using namespace diffcode::analysis;

AbstractValue AbstractValue::unknownConst() {
  AbstractValue V;
  V.Kind = AVKind::UnknownConst;
  return V;
}

AbstractValue AbstractValue::null() {
  AbstractValue V;
  V.Kind = AVKind::Null;
  return V;
}

AbstractValue AbstractValue::intConst(std::int64_t Value, std::string Symbol) {
  AbstractValue V;
  V.Kind = AVKind::IntConst;
  V.IntValue = Value;
  V.Text = std::move(Symbol);
  return V;
}

AbstractValue AbstractValue::intTop() {
  AbstractValue V;
  V.Kind = AVKind::IntTop;
  return V;
}

AbstractValue
AbstractValue::intArrayConst(std::vector<std::int64_t> Elements) {
  AbstractValue V;
  V.Kind = AVKind::IntArrayConst;
  V.IntElems = std::move(Elements);
  return V;
}

AbstractValue AbstractValue::intArrayTop() {
  AbstractValue V;
  V.Kind = AVKind::IntArrayTop;
  return V;
}

AbstractValue AbstractValue::strConst(std::string Value) {
  AbstractValue V;
  V.Kind = AVKind::StrConst;
  V.Text = std::move(Value);
  return V;
}

AbstractValue AbstractValue::strTop() {
  AbstractValue V;
  V.Kind = AVKind::StrTop;
  return V;
}

AbstractValue
AbstractValue::strArrayConst(std::vector<std::string> Elements) {
  AbstractValue V;
  V.Kind = AVKind::StrArrayConst;
  V.StrElems = std::move(Elements);
  return V;
}

AbstractValue AbstractValue::strArrayTop() {
  AbstractValue V;
  V.Kind = AVKind::StrArrayTop;
  return V;
}

AbstractValue AbstractValue::byteConst() {
  AbstractValue V;
  V.Kind = AVKind::ByteConst;
  return V;
}

AbstractValue AbstractValue::byteTop() {
  AbstractValue V;
  V.Kind = AVKind::ByteTop;
  return V;
}

AbstractValue AbstractValue::byteArrayConst() {
  AbstractValue V;
  V.Kind = AVKind::ByteArrayConst;
  return V;
}

AbstractValue AbstractValue::byteArrayTop() {
  AbstractValue V;
  V.Kind = AVKind::ByteArrayTop;
  return V;
}

AbstractValue AbstractValue::object(unsigned Id, std::string_view TypeName) {
  AbstractValue V;
  V.Kind = AVKind::Object;
  V.ObjectId = Id;
  V.Text = TypeName;
  return V;
}

AbstractValue AbstractValue::topObject(std::string_view TypeName) {
  AbstractValue V;
  V.Kind = AVKind::TopObject;
  V.Text = TypeName;
  return V;
}

bool AbstractValue::isConstant() const {
  switch (Kind) {
  case AVKind::UnknownConst:
  case AVKind::Null:
  case AVKind::IntConst:
  case AVKind::IntArrayConst:
  case AVKind::StrConst:
  case AVKind::StrArrayConst:
  case AVKind::ByteConst:
  case AVKind::ByteArrayConst:
    return true;
  default:
    return false;
  }
}

std::string AbstractValue::label() const {
  switch (Kind) {
  case AVKind::Unknown:
    return "⊤";
  case AVKind::UnknownConst:
    return "const";
  case AVKind::Null:
    return "null";
  case AVKind::IntConst:
    return Text.empty() ? std::to_string(IntValue) : Text;
  case AVKind::IntTop:
    return "⊤int";
  case AVKind::IntArrayConst: {
    std::string Out = "[";
    for (std::size_t I = 0; I < IntElems.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += std::to_string(IntElems[I]);
    }
    return Out + "]";
  }
  case AVKind::IntArrayTop:
    return "⊤int[]";
  case AVKind::StrConst:
    return Text;
  case AVKind::StrTop:
    return "⊤str";
  case AVKind::StrArrayConst: {
    std::string Out = "[";
    for (std::size_t I = 0; I < StrElems.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += StrElems[I];
    }
    return Out + "]";
  }
  case AVKind::StrArrayTop:
    return "⊤str[]";
  case AVKind::ByteConst:
    return "constbyte";
  case AVKind::ByteTop:
    return "⊤byte";
  case AVKind::ByteArrayConst:
    return "constbyte[]";
  case AVKind::ByteArrayTop:
    return "⊤byte[]";
  case AVKind::Object:
  case AVKind::TopObject:
    return Text;
  }
  return "⊤";
}

AbstractValue AbstractValue::join(const AbstractValue &A,
                                  const AbstractValue &B) {
  if (A == B)
    return A;
  // Same domain, different values -> domain top.
  auto DomainTop = [](AVKind K) -> AbstractValue {
    switch (K) {
    case AVKind::IntConst:
    case AVKind::IntTop:
      return intTop();
    case AVKind::IntArrayConst:
    case AVKind::IntArrayTop:
      return intArrayTop();
    case AVKind::StrConst:
    case AVKind::StrTop:
      return strTop();
    case AVKind::StrArrayConst:
    case AVKind::StrArrayTop:
      return strArrayTop();
    case AVKind::ByteConst:
    case AVKind::ByteTop:
      return byteTop();
    case AVKind::ByteArrayConst:
    case AVKind::ByteArrayTop:
      return byteArrayTop();
    default:
      return unknown();
    }
  };
  if (A.isObjectLike() && B.isObjectLike())
    return A.Text == B.Text ? topObject(A.Text) : unknown();
  AbstractValue TopA = DomainTop(A.Kind);
  AbstractValue TopB = DomainTop(B.Kind);
  if (TopA == TopB && TopA.Kind != AVKind::Unknown)
    return TopA;
  return unknown();
}

bool AbstractValue::operator==(const AbstractValue &Other) const {
  if (Kind != Other.Kind)
    return false;
  switch (Kind) {
  case AVKind::IntConst:
    return IntValue == Other.IntValue && Text == Other.Text;
  case AVKind::IntArrayConst:
    return IntElems == Other.IntElems;
  case AVKind::StrConst:
    return Text == Other.Text;
  case AVKind::StrArrayConst:
    return StrElems == Other.StrElems;
  case AVKind::Object:
    return ObjectId == Other.ObjectId;
  case AVKind::TopObject:
    return Text == Other.Text;
  default:
    return true;
  }
}
