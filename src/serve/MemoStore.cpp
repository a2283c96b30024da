//===- serve/MemoStore.cpp - Content-addressed campaign result cache ------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "serve/MemoStore.h"

#include "isa/ProgramHash.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "support/AtomicFile.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace talft;
using namespace talft::serve;

MemoStore::MemoStore(size_t Capacity, std::string CacheDir)
    : Capacity(Capacity ? Capacity : 1), CacheDir(std::move(CacheDir)) {
  Counters.Capacity = this->Capacity;
  // The disk tier is opt-in; make a fresh --cache-dir usable without a
  // manual mkdir. persist() skips silently if this fails — the server
  // surfaces the hard error from start() instead.
  if (!this->CacheDir.empty())
    support::createDirectories(this->CacheDir);
}

std::string MemoStore::entryPath(const MemoKey &K) const {
  if (CacheDir.empty())
    return "";
  return CacheDir + formatv("/memo-%016llx-%016llx.json",
                            (unsigned long long)K.ProgramHash,
                            (unsigned long long)K.OptionsDigest);
}

std::optional<MemoEntry> MemoStore::lookup(const MemoKey &K) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(K);
  if (It == Index.end()) {
    std::optional<MemoEntry> FromDisk = loadFromDisk(K);
    if (!FromDisk) {
      ++Counters.Misses;
      return std::nullopt;
    }
    ++Counters.DiskLoads;
    Entries.push_front(std::move(*FromDisk));
    Index[K] = Entries.begin();
    while (Entries.size() > Capacity) {
      Index.erase(Entries.back().Key);
      Entries.pop_back();
      ++Counters.Evictions;
    }
    It = Index.find(K);
  }
  // Refresh the LRU position.
  Entries.splice(Entries.begin(), Entries, It->second);
  It->second = Entries.begin();
  const MemoEntry &E = *It->second;
  if (E.complete())
    ++Counters.Hits;
  else
    ++Counters.PartialHits;
  return E;
}

void MemoStore::store(const MemoEntry &E) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(E.Key);
  if (It != Index.end()) {
    *It->second = E;
    Entries.splice(Entries.begin(), Entries, It->second);
    It->second = Entries.begin();
  } else {
    Entries.push_front(E);
    Index[E.Key] = Entries.begin();
    while (Entries.size() > Capacity) {
      Index.erase(Entries.back().Key);
      Entries.pop_back();
      ++Counters.Evictions;
    }
  }
  persist(E);
}

MemoStats MemoStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  MemoStats S = Counters;
  S.Entries = Entries.size();
  return S;
}

std::optional<MemoEntry> MemoStore::loadFromDisk(const MemoKey &K) {
  std::string Path = entryPath(K);
  if (Path.empty())
    return std::nullopt;
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::nullopt;
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);

  std::optional<JsonValue> Doc = JsonValue::parse(Text);
  if (!Doc || Doc->stringAt("schema", "") != CacheSchema)
    return std::nullopt;
  MemoEntry E;
  uint64_t PH = 0, OD = 0;
  if (!parseProgramHash(Doc->stringAt("program_hash", ""), PH) ||
      !parseProgramHash(Doc->stringAt("options_digest", ""), OD))
    return std::nullopt;
  E.Key = {PH, OD};
  if (!(E.Key == K)) // a mangled or misplaced file must not answer for K
    return std::nullopt;
  E.Name = Doc->stringAt("name", "");
  E.Certification = Doc->stringAt("certification", "");
  uint64_t Total = Doc->u64At("shards_total", 0);
  uint64_t Done = Doc->u64At("shards_done", 0);
  const JsonValue *Campaign = Doc->get("campaign");
  std::string Err;
  if (!Campaign || !campaignFromJson(*Campaign, E.Folded, Err))
    return std::nullopt;
  // The fold covers shards [0, Done) of the partition it was cut under
  // (an unfolded result is one shard). Counts that say otherwise would
  // serve a prefix as a finished table, resume past the last shard or fold
  // a shard twice.
  const CampaignStats &S = E.Folded.Stats;
  if (Total != S.ShardCount || Done > Total ||
      Done != (S.ShardsFolded ? S.ShardsFolded : 1))
    return std::nullopt;
  E.ShardsTotal = S.ShardCount;
  E.ShardsDone = (unsigned)Done;
  return E;
}

void MemoStore::persist(const MemoEntry &E) {
  std::string Path = entryPath(E.Key);
  if (Path.empty())
    return;
  std::string S = "{\n";
  S += formatv("  \"schema\": \"%s\",\n", CacheSchema);
  S += "  \"name\": " + jsonQuote(E.Name) + ",\n";
  S += formatv("  \"program_hash\": \"%s\",\n",
               programHashString(E.Key.ProgramHash).c_str());
  S += formatv("  \"options_digest\": \"%s\",\n",
               programHashString(E.Key.OptionsDigest).c_str());
  S += "  \"certification\": " + jsonQuote(E.Certification) + ",\n";
  S += formatv("  \"shards_total\": %u,\n", E.ShardsTotal);
  S += formatv("  \"shards_done\": %u,\n", E.ShardsDone);
  S += "  \"campaign\":\n";
  S += campaignToJson(E.Folded, 2);
  S += "\n}\n";
  if (support::writeFileAtomic(Path, S))
    ++Counters.DiskStores;
}
