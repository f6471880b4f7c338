//===- corpus/CorpusIO.cpp -------------------------------------------------===//

#include "corpus/CorpusIO.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fs = std::filesystem;

using namespace diffcode;
using namespace diffcode::corpus;

namespace {

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

bool writeFile(const fs::path &Path, const std::string &Content,
               std::string *Error) {
  std::ofstream Out(Path);
  if (!Out)
    return fail(Error, "cannot write " + Path.string());
  Out << Content;
  // A full disk or I/O error surfaces on the stream state, possibly only
  // when the buffer flushes at close — an unchecked short write here
  // would round-trip a silently truncated corpus.
  Out.close();
  if (Out.fail())
    return fail(Error, "short write to " + Path.string());
  return true;
}

std::optional<std::string> readFile(const fs::path &Path) {
  return readFileContents(Path.string());
}

std::string metaToText(const rules::ProjectMetadata &Meta) {
  std::string Out;
  Out += "isAndroid=" + std::string(Meta.IsAndroid ? "true" : "false") + "\n";
  Out += "minSdkVersion=" + std::to_string(Meta.MinSdkVersion) + "\n";
  Out += "hasLinuxPrngFix=" +
         std::string(Meta.HasLinuxPrngFix ? "true" : "false") + "\n";
  return Out;
}

rules::ProjectMetadata metaFromText(const std::string &Text) {
  rules::ProjectMetadata Meta;
  for (const std::string &Line : split(Text, '\n')) {
    std::string_view Trimmed = trim(Line);
    std::size_t Eq = Trimmed.find('=');
    if (Eq == std::string_view::npos)
      continue;
    std::string_view Key = Trimmed.substr(0, Eq);
    std::string_view Value = Trimmed.substr(Eq + 1);
    if (Key == "isAndroid")
      Meta.IsAndroid = Value == "true";
    else if (Key == "minSdkVersion")
      Meta.MinSdkVersion = std::atoi(std::string(Value).c_str());
    else if (Key == "hasLinuxPrngFix")
      Meta.HasLinuxPrngFix = Value == "true";
  }
  return Meta;
}

std::string commitDirName(unsigned Index) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "c%04u", Index);
  return Buf;
}

/// Reads \p Fd to EOF, retrying short reads (a pipe writer filling in
/// bursts must not look like a smaller file); \p SizeHint pre-sizes the
/// result. nullopt on a read error.
std::optional<std::string> readToEof(int Fd, std::size_t SizeHint) {
  std::string Out;
  Out.reserve(SizeHint);
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N == 0)
      return Out;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return std::nullopt;
    }
    Out.append(Buf, static_cast<std::size_t>(N));
  }
}

} // namespace

std::optional<std::string>
diffcode::corpus::readFileContents(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return std::nullopt;
  struct stat St;
  if (::fstat(Fd, &St) != 0 || S_ISDIR(St.st_mode)) {
    ::close(Fd);
    return std::nullopt;
  }

  // Every file kind takes the one loop; only a regular file's stat size
  // is trusted, as a reservation.
  std::optional<std::string> Out = readToEof(
      Fd, S_ISREG(St.st_mode) ? static_cast<std::size_t>(St.st_size) : 0);
  ::close(Fd);
  return Out;
}

bool diffcode::corpus::writeCorpus(const Corpus &C, const std::string &RootDir,
                                   std::string *Error) {
  std::error_code EC;
  fs::create_directories(RootDir, EC);
  if (EC)
    return fail(Error, "cannot create " + RootDir + ": " + EC.message());

  for (const Project &P : C.Projects) {
    fs::path ProjectDir = fs::path(RootDir) / P.Name;
    fs::create_directories(ProjectDir / "head", EC);
    if (EC)
      return fail(Error, "cannot create " + ProjectDir.string());
    if (!writeFile(ProjectDir / "project.meta", metaToText(P.Meta), Error))
      return false;
    for (const ProjectFile &File : P.Files)
      if (!writeFile(ProjectDir / "head" / File.Name, File.Code, Error))
        return false;

    for (const CodeChange &Change : P.History) {
      fs::path CommitDir =
          ProjectDir / "commits" / commitDirName(Change.CommitIndex);
      fs::create_directories(CommitDir, EC);
      if (EC)
        return fail(Error, "cannot create " + CommitDir.string());
      if (!writeFile(CommitDir / "kind.txt", Change.Kind + "\n", Error) ||
          !writeFile(CommitDir / "file.txt", Change.FileName + "\n", Error) ||
          !writeFile(CommitDir / "old.java", Change.OldCode, Error) ||
          !writeFile(CommitDir / "new.java", Change.NewCode, Error))
        return false;
    }
  }
  return true;
}

std::optional<Corpus> diffcode::corpus::readCorpus(const std::string &RootDir,
                                                   std::string *Error) {
  if (!fs::is_directory(RootDir)) {
    fail(Error, RootDir + " is not a directory");
    return std::nullopt;
  }

  Corpus C;
  std::vector<fs::path> ProjectDirs;
  for (const fs::directory_entry &Entry : fs::directory_iterator(RootDir))
    if (Entry.is_directory())
      ProjectDirs.push_back(Entry.path());
  std::sort(ProjectDirs.begin(), ProjectDirs.end());

  for (const fs::path &ProjectDir : ProjectDirs) {
    Project P;
    P.Name = ProjectDir.filename().string();
    if (auto Meta = readFile(ProjectDir / "project.meta"))
      P.Meta = metaFromText(*Meta);

    if (fs::is_directory(ProjectDir / "head")) {
      std::vector<fs::path> Heads;
      for (const fs::directory_entry &Entry :
           fs::directory_iterator(ProjectDir / "head"))
        if (Entry.is_regular_file())
          Heads.push_back(Entry.path());
      std::sort(Heads.begin(), Heads.end());
      for (const fs::path &Head : Heads)
        if (auto Code = readFile(Head))
          P.Files.push_back({Head.filename().string(), std::move(*Code)});
    }

    if (fs::is_directory(ProjectDir / "commits")) {
      std::vector<fs::path> CommitDirs;
      for (const fs::directory_entry &Entry :
           fs::directory_iterator(ProjectDir / "commits"))
        if (Entry.is_directory())
          CommitDirs.push_back(Entry.path());
      std::sort(CommitDirs.begin(), CommitDirs.end());
      for (const fs::path &CommitDir : CommitDirs) {
        CodeChange Change;
        Change.ProjectName = P.Name;
        std::string Name = CommitDir.filename().string();
        if (Name.size() > 1 && Name[0] == 'c')
          Change.CommitIndex =
              static_cast<unsigned>(std::atoi(Name.c_str() + 1));
        if (auto Kind = readFile(CommitDir / "kind.txt"))
          Change.Kind = std::string(trim(*Kind));
        if (auto File = readFile(CommitDir / "file.txt"))
          Change.FileName = std::string(trim(*File));
        if (auto Old = readFile(CommitDir / "old.java"))
          Change.OldCode = std::move(*Old);
        if (auto New = readFile(CommitDir / "new.java"))
          Change.NewCode = std::move(*New);
        P.History.push_back(std::move(Change));
      }
    }
    C.Projects.push_back(std::move(P));
  }
  return C;
}
