//===- observe/Profile.cpp - End-of-run --profile report -------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//

#include "observe/Profile.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

namespace igdt {

double ProfileReport::cacheHitRate() const {
  std::uint64_t Lookups = CacheHits + CacheMisses;
  return Lookups ? double(CacheHits) / double(Lookups) : 0;
}

double ProfileReport::codeCacheHitRate() const {
  std::uint64_t Requests = JitCompiles + JitCodeCacheHits;
  return Requests ? double(JitCodeCacheHits) / double(Requests) : 0;
}

double ProfileReport::storeHitRate() const {
  std::uint64_t Lookups = StoreHits + StoreMisses;
  return Lookups ? double(StoreHits) / double(Lookups) : 0;
}

std::string ProfileReport::render() const {
  std::string Out = "== profile ==\n";
  {
    TablePrinter T({"stage", "total ms", "count", "mean ms"});
    for (const Stage &S : Stages)
      T.addRow({S.Name, formatString("%.2f", S.TotalMillis),
                formatString("%llu", (unsigned long long)S.Count),
                formatString("%.3f",
                             S.Count ? S.TotalMillis / double(S.Count) : 0)});
    Out += T.render();
  }
  if (!TopInstructions.empty()) {
    Out += "\n";
    TablePrinter T({"instruction", "total ms"});
    for (const Item &I : TopInstructions)
      T.addRow({I.Name, formatString("%.2f", I.Millis)});
    Out += T.render();
  }
  {
    Out += "\n";
    TablePrinter T({"solver cache", "value"});
    T.addRow({"queries",
              formatString("%llu", (unsigned long long)SolverQueries)});
    T.addRow({"hits", formatString("%llu", (unsigned long long)CacheHits)});
    T.addRow({"misses", formatString("%llu", (unsigned long long)CacheMisses)});
    T.addRow({"hit rate", formatPercent(cacheHitRate())});
    Out += T.render();
  }
  {
    Out += "\n";
    TablePrinter T({"code cache", "value"});
    T.addRow({"compiles",
              formatString("%llu", (unsigned long long)JitCompiles)});
    T.addRow({"hits",
              formatString("%llu", (unsigned long long)JitCodeCacheHits)});
    T.addRow({"hit rate", formatPercent(codeCacheHitRate())});
    Out += T.render();
  }
  if (HasStore) {
    Out += "\n";
    TablePrinter T({"verdict store", "value"});
    auto U64 = [](std::uint64_t V) {
      return formatString("%llu", (unsigned long long)V);
    };
    T.addRow({"served", U64(StoreServed)});
    T.addRow({"hits", U64(StoreHits)});
    T.addRow({"misses", U64(StoreMisses)});
    T.addRow({"hit rate", formatPercent(storeHitRate())});
    T.addRow({"stored", U64(StoreStores)});
    T.addRow({"live solver queries", U64(LiveSolverQueries)});
    Out += T.render();
  }
  if (!Metrics.empty()) {
    Out += "\n";
    Out += Metrics.render();
  }
  return Out;
}

JsonValue ProfileReport::toJson() const {
  JsonValue V = JsonValue::object();
  JsonValue StagesJson = JsonValue::array();
  for (const Stage &S : Stages) {
    JsonValue One = JsonValue::object();
    One.set("stage", JsonValue::string(S.Name));
    One.set("total_millis", JsonValue::number(S.TotalMillis));
    One.set("count", JsonValue::number(static_cast<double>(S.Count)));
    StagesJson.push(std::move(One));
  }
  V.set("stages", std::move(StagesJson));
  JsonValue TopJson = JsonValue::array();
  for (const Item &I : TopInstructions) {
    JsonValue One = JsonValue::object();
    One.set("instruction", JsonValue::string(I.Name));
    One.set("total_millis", JsonValue::number(I.Millis));
    TopJson.push(std::move(One));
  }
  V.set("top_instructions", std::move(TopJson));
  JsonValue Cache = JsonValue::object();
  Cache.set("queries", JsonValue::number(static_cast<double>(SolverQueries)));
  Cache.set("hits", JsonValue::number(static_cast<double>(CacheHits)));
  Cache.set("misses", JsonValue::number(static_cast<double>(CacheMisses)));
  Cache.set("hit_rate", JsonValue::number(cacheHitRate()));
  V.set("solver_cache", std::move(Cache));
  JsonValue CodeCache = JsonValue::object();
  CodeCache.set("compiles",
                JsonValue::number(static_cast<double>(JitCompiles)));
  CodeCache.set("hits",
                JsonValue::number(static_cast<double>(JitCodeCacheHits)));
  CodeCache.set("hit_rate", JsonValue::number(codeCacheHitRate()));
  V.set("code_cache", std::move(CodeCache));
  if (HasStore) {
    auto N = [](std::uint64_t V) {
      return JsonValue::number(static_cast<double>(V));
    };
    JsonValue StoreJson = JsonValue::object();
    StoreJson.set("served", N(StoreServed));
    StoreJson.set("hits", N(StoreHits));
    StoreJson.set("misses", N(StoreMisses));
    StoreJson.set("hit_rate", JsonValue::number(storeHitRate()));
    StoreJson.set("stored", N(StoreStores));
    StoreJson.set("live_solver_queries", N(LiveSolverQueries));
    V.set("store", std::move(StoreJson));
  }
  V.set("metrics", Metrics.toJson());
  return V;
}

} // namespace igdt
