//===- examples/export_corpus.cpp - Materialize a corpus on disk -----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Generates a synthetic GitHub-shaped corpus and writes it to disk in the
// CorpusIO layout — browsable Java sources, one directory per commit —
// then reads it back and runs the miner as a sanity check. The same
// layout accepts real git-exported histories, which `diffcode_cli
// pipeline <dir>` can then process.
//
// Usage: export_corpus <output-dir> [num_projects] [seed]
//
//===----------------------------------------------------------------------===//

#include "CliArgs.h"

#include "corpus/CorpusGenerator.h"
#include "corpus/CorpusIO.h"
#include "corpus/Miner.h"

#include <cstdio>

using namespace diffcode;

int main(int argc, char **argv) {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = 8;
  Opts.Seed = 42;
  if (argc < 2 || (argc > 2 && !parseNonNegative(argv[2], Opts.NumProjects)) ||
      (argc > 3 && !parseNonNegative(argv[3], Opts.Seed))) {
    std::fprintf(stderr,
                 "usage: export_corpus <output-dir> [num_projects] [seed]\n");
    return 2;
  }

  std::printf("generating %u projects (seed %llu)...\n", Opts.NumProjects,
              static_cast<unsigned long long>(Opts.Seed));
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();

  std::string Error;
  if (!corpus::writeCorpus(C, argv[1], &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("wrote %zu projects (%zu commits) under %s\n",
              C.Projects.size(), C.totalChanges(), argv[1]);

  // Round-trip sanity: the loaded corpus mines identically.
  std::optional<corpus::Corpus> Loaded = corpus::readCorpus(argv[1], &Error);
  if (!Loaded) {
    std::fprintf(stderr, "error reading back: %s\n", Error.c_str());
    return 1;
  }
  corpus::Miner M(apimodel::CryptoApiModel::javaCryptoApi());
  std::printf("read-back check: %zu mined changes (expected %zu)\n",
              M.mine(*Loaded).size(), M.mine(C).size());
  std::printf("\nnext: ./diffcode_cli pipeline %s\n", argv[1]);
  return 0;
}
