//===- bench/campaign_resilience.cpp - Campaign containment smoke --------------===//
//
// Standalone proof that a campaign survives every injectable harness
// malfunction: runs a clean-configuration campaign over a small
// instruction subset with all four fault kinds armed (solver hang,
// simulator fuel exhaustion, front-end throw, heap corruption), prints
// the quarantine accounting and the incident report, and exits nonzero
// only if containment failed (wrong quarantine set, missing incidents,
// or a genuine defect in the fixed configuration). CI runs this after
// the unit suite.
//
// Positional arguments name a single fault kind to arm instead of the
// default all-four plan (CI variants); session flags (--trace,
// --incidents, --jobs, ...) are available as everywhere else.
//
//===----------------------------------------------------------------------===//

#include "api/Requests.h"
#include "api/Session.h"

#include "faults/DefectCatalog.h"
#include "service/ResultStore.h"
#include "support/Flags.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <stdexcept>

using namespace igdt;

int main(int Argc, char **Argv) {
  CampaignRequest Request;
  FlagParser Flags("campaign_resilience",
                   "Containment smoke: all harness faults armed.");
  requestFromFlags(Flags, Request);
  if (!Flags.parse(Argc, Argv))
    return Flags.helpRequested() ? 0 : 2;

  SessionConfig Config;
  try {
    Config = Request.toSessionConfig();
  } catch (const std::invalid_argument &E) {
    std::fprintf(stderr, "%s\n", E.what());
    return 2;
  }
  std::unique_ptr<ResultStore> Store;
  if (!Request.StorePath.empty()) {
    Store = std::make_unique<ResultStore>(Request.StorePath);
    Config.Campaign.Store = Store.get();
  }

  Config.harness().VM = cleanVMConfig();
  Config.harness().Cogit = cleanCogitOptions();
  Config.harness().SeedSimulationErrors = false;
  Config.Campaign.OnlyInstructions = {
      "bytecodePrim_add", "bytecodePrim_sub", "bytecodePrim_mul",
      "bytecodePrim_div", "primitiveAdd",     "primitiveFloatAdd"};
  Config.Campaign.Faults.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_sub", false},
      {HarnessFaultKind::HeapCorruption, "bytecodePrim_mul", false},
      {HarnessFaultKind::SimFuelExhaustion, "primitiveAdd", false},
  };
  // Positional override for CI variants: arm only the named fault kind.
  for (const std::string &Arg : Flags.positional())
    for (HarnessFaultKind Kind :
         {HarnessFaultKind::SolverHang, HarnessFaultKind::SimFuelExhaustion,
          HarnessFaultKind::FrontEndThrow, HarnessFaultKind::HeapCorruption})
      if (Arg == harnessFaultKindName(Kind))
        Config.Campaign.Faults.Faults = {{Kind, "bytecodePrim_add", false}};

  Session Sess(Config);
  CampaignSummary S = Sess.runCampaign();

  std::printf("campaign: %u instructions, %zu incidents, %zu quarantined\n",
              S.CompletedInstructions, S.Incidents.size(),
              S.Quarantined.size());
  for (const CampaignIncident &I : S.Incidents)
    std::printf("incident: %s\n", I.toJson().c_str());

  std::vector<std::string> Expected = Config.Campaign.Faults.targets();
  std::vector<std::string> Actual = S.Quarantined;
  std::sort(Expected.begin(), Expected.end());
  std::sort(Actual.begin(), Actual.end());
  if (Actual != Expected) {
    std::printf("FAIL: quarantine set does not match the fault plan\n");
    return 2;
  }
  if (S.Incidents.empty()) {
    std::printf("FAIL: contained faults produced no incidents\n");
    return 2;
  }
  if (S.CompletedInstructions != Config.Campaign.OnlyInstructions.size()) {
    std::printf("FAIL: campaign did not process the whole worklist\n");
    return 2;
  }

  std::printf("campaign resilient: faults contained, exit %d\n",
              S.exitCode());
  return S.exitCode();
}
