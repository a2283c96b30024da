//===- serve/FrontEnd.cpp - A submission's compile, hash and certification ===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "serve/FrontEnd.h"

#include "analysis/Certify.h"
#include "isa/ProgramHash.h"
#include "tal/Parser.h"

using namespace talft;
using namespace talft::serve;

std::string talft::serve::sourceKey(const std::string &Lang,
                                    const std::string &Source) {
  // The protocol admits only "wile" and "tal", so the first newline ends
  // the language.
  return Lang + '\n' + Source;
}

CompiledSource::CompiledSource(const std::string &Lang,
                               const std::string &Source) {
  DiagnosticEngine Diags;
  if (Lang == "wile") {
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, Source, wile::CodegenMode::FaultTolerant, Diags);
    if (!CP) {
      CompileError = CP.message();
      return;
    }
    Wile.emplace(std::move(*CP));
    Prog = &Wile->Prog;
  } else {
    Expected<Program> P = parseAndLayoutTalProgram(TC, Source, Diags);
    if (!P) {
      CompileError = P.message();
      return;
    }
    Tal.emplace(std::move(*P));
    Prog = &*Tal;
  }
}

FrontEnd talft::serve::runFrontEnd(CompiledSource &Src) {
  FrontEnd F;
  if (!Src.Prog) {
    F.CompileError = Src.CompileError;
    return F;
  }
  const Program &P = *Src.Prog;
  Expected<MachineState> S0 = P.initialState();
  if (Error Err = S0.takeError()) {
    F.CompileError = Err.message();
    return F;
  }
  F.ProgramHash =
      programContentHash(P.code(), P.entryAddress(), P.exitAddress(), *S0);
  // The ladder is independent of the campaign: raw-semantics sweeps run
  // even for programs the checker rejects, as in fig10.
  F.Certification = analysis::certificationStatusJsonKey(
      analysis::certifyProgram(Src.TC, P).Status);
  return F;
}

FrontEndMemo::FrontEndMemo(size_t Capacity)
    : Capacity(Capacity ? Capacity : 1) {}

std::optional<FrontEnd> FrontEndMemo::lookup(const std::string &Lang,
                                             const std::string &Source) {
  std::string Key = sourceKey(Lang, Source);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Misses;
    return std::nullopt;
  }
  ++Hits;
  Entries.splice(Entries.begin(), Entries, It->second);
  return It->second->second;
}

void FrontEndMemo::store(const std::string &Lang, const std::string &Source,
                         const FrontEnd &F) {
  std::string Key = sourceKey(Lang, Source);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    // Another handler compiled the same source meanwhile: same answer.
    Entries.splice(Entries.begin(), Entries, It->second);
    return;
  }
  Entries.emplace_front(std::move(Key), F);
  Index.emplace(Entries.front().first, Entries.begin());
  while (Entries.size() > Capacity) {
    Index.erase(Entries.back().first);
    Entries.pop_back();
  }
}

FrontEndStats FrontEndMemo::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  FrontEndStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Entries = Entries.size();
  S.Capacity = Capacity;
  return S;
}
