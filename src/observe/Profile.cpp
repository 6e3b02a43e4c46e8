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
  V.set("metrics", Metrics.toJson());
  return V;
}

} // namespace igdt
