//===- support/StringUtils.cpp --------------------------------------------===//

#include "support/StringUtils.h"

using namespace diffcode;

std::vector<std::string> diffcode::split(std::string_view Text, char Sep) {
  std::vector<std::string> Out;
  std::size_t Start = 0;
  while (true) {
    std::size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Out.emplace_back(Text.substr(Start));
      return Out;
    }
    Out.emplace_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string diffcode::join(const std::vector<std::string> &Parts,
                           std::string_view Sep) {
  std::string Out;
  for (std::size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string_view diffcode::trim(std::string_view Text) {
  auto IsSpace = [](char C) {
    return C == ' ' || C == '\t' || C == '\n' || C == '\r';
  };
  while (!Text.empty() && IsSpace(Text.front()))
    Text.remove_prefix(1);
  while (!Text.empty() && IsSpace(Text.back()))
    Text.remove_suffix(1);
  return Text;
}
