//===- evalkit/VerdictStore.cpp - Content-addressed verdict cache -------------===//

#include "evalkit/VerdictStore.h"

#include "evalkit/CampaignRunner.h"
#include "support/StringUtils.h"
#include "vm/InstructionCatalog.h"

#include <cstring>

using namespace igdt;

namespace {

std::uint64_t bitsOf(double Value) {
  std::uint64_t Bits = 0;
  std::memcpy(&Bits, &Value, sizeof Bits);
  return Bits;
}

} // namespace

std::uint64_t igdt::instructionBodyHash(const InstructionSpec &Spec) {
  std::uint64_t H = hashCombine64(0xB0D7ull, VerdictSchemaVersion);
  H = hashCombine64(H, stableHash64(Spec.Name));
  H = hashCombine64(H, std::uint64_t(Spec.Kind));
  H = hashCombine64(H, Spec.Bytes.size());
  for (std::uint8_t Byte : Spec.Bytes)
    H = hashCombine64(H, Byte);
  H = hashCombine64(H, std::uint64_t(std::int64_t(Spec.PrimitiveIndex)));
  H = hashCombine64(H, Spec.NumLocals);
  H = hashCombine64(H, Spec.Literals.size());
  for (Oop Literal : Spec.Literals)
    H = hashCombine64(H, Literal);
  H = hashCombine64(H, Spec.PaddingBytes);
  return H;
}

std::uint64_t igdt::campaignConfigFingerprint(const CampaignOptions &Opts) {
  // Same chained-combine idiom as the solver's caps fingerprint: every
  // field that can change a record's bytes, in a fixed order. Jobs /
  // WorkerProcesses / deadlines / the identity-gated replay toggles are
  // deliberately absent (see the header's exclusion argument).
  std::uint64_t H = hashCombine64(0xCF16ull, VerdictSchemaVersion);

  const VMConfig &VM = Opts.Harness.VM;
  H = hashCombine64(H, VM.MaxOperandStack);
  H = hashCombine64(H, VM.MaxObjectSlots);
  H = hashCombine64(H, VM.SeedAsFloatMissingReceiverCheck);
  H = hashCombine64(H, VM.SeedBitOpsFailOnNegative);

  const ExplorerOptions &E = Opts.Harness.Explorer;
  H = hashCombine64(H, E.MaxPaths);
  H = hashCombine64(H, E.MaxIterations);
  H = hashCombine64(H, std::uint64_t(E.MaxReplayStackDepth));
  H = hashCombine64(H, E.LadderRungs);

  const SolverOptions &S = E.Solver;
  H = hashCombine64(H, std::uint64_t(std::int64_t(S.IntegerBits)));
  H = hashCombine64(H, S.MaxCases);
  H = hashCombine64(H, S.MaxClassCombos);
  H = hashCombine64(H, S.MaxSearchNodes);
  H = hashCombine64(H, S.RandomSamples);
  H = hashCombine64(H, std::uint64_t(S.MaxStackSize));
  H = hashCombine64(H, std::uint64_t(S.MaxSlotCount));
  H = hashCombine64(H, S.Seed);

  const CogitOptions &C = Opts.Harness.Cogit;
  H = hashCombine64(H, C.SeedFloatReceiverCheckMissing);
  H = hashCombine64(H, C.SeedFFINotImplemented);
  H = hashCombine64(H, C.SeedBitOpsAcceptNegatives);
  H = hashCombine64(H, C.InjectFrontEndThrow);

  const SimOptions &Sim = Opts.Harness.Sim;
  H = hashCombine64(H, Sim.Fuel);
  H = hashCombine64(H, Sim.MissingGPAccessors.size());
  for (std::uint8_t Reg : Sim.MissingGPAccessors)
    H = hashCombine64(H, Reg);
  H = hashCombine64(H, Sim.MissingFPAccessors.size());
  for (std::uint8_t Reg : Sim.MissingFPAccessors)
    H = hashCombine64(H, Reg);
  // Sim.Engine is deliberately absent: the three engines are proven
  // byte-identical (the tier-identity gate), so a record computed under
  // one may serve any other — the same argument that keeps the replay
  // toggles out. The probe and the cross-engine oracle DO shape record
  // bytes (extra defect family rows), so they are config.
  H = hashCombine64(H, Sim.NativeMiscompileProbe);
  H = hashCombine64(H, Opts.Harness.CrossEngineCheck);

  H = hashCombine64(H, Opts.Harness.SeedSimulationErrors);
  H = hashCombine64(H, Opts.ExploreBudget.WorkUnits);
  H = hashCombine64(H, Opts.ReplayBudget.WorkUnits);
  H = hashCombine64(H, Opts.TotalExploreUnits);
  H = hashCombine64(H, Opts.MaxAttempts);
  H = hashCombine64(H, Opts.RecordTimings);

  const ScheduleOptions &Sched = Opts.Schedule;
  H = hashCombine64(H, stableHash64(Sched.Policy));
  H = hashCombine64(H, Sched.SolverTiers);
  H = hashCombine64(H, Sched.BudgetPool);
  H = hashCombine64(H, bitsOf(Sched.BudgetPoolCapFactor));
  H = hashCombine64(H, Sched.PersistYield);

  H = hashCombine64(H, Opts.Faults.Faults.size());
  for (const ArmedFault &F : Opts.Faults.Faults) {
    H = hashCombine64(H, std::uint64_t(F.Kind));
    H = hashCombine64(H, stableHash64(F.Instruction));
    H = hashCombine64(H, F.Transient);
  }
  return H;
}

std::uint64_t igdt::resultStoreKey(const InstructionSpec &Spec,
                                   std::uint64_t ConfigFingerprint) {
  return hashCombine64(instructionBodyHash(Spec), ConfigFingerprint);
}

bool igdt::storeEligible(const CampaignOptions &Opts) {
  // Wall clocks make record content timing-dependent; the campaign
  // ledger (and an adaptive pool drawing on it) makes *which*
  // instruction starves a scheduling fact. Neither may be cached.
  if (Opts.ExploreBudget.WallMillis > 0 || Opts.ReplayBudget.WallMillis > 0 ||
      Opts.CampaignWallMillis > 0)
    return false;
  if (Opts.TotalExploreUnits > 0)
    return false;
  if (Opts.Schedule.adaptive() && Opts.Schedule.BudgetPool)
    return false;
  return true;
}
