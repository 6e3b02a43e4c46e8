//===- evalkit/VerdictStore.cpp - Content-addressed verdict cache -------------===//

#include "evalkit/VerdictStore.h"

#include "evalkit/CampaignRunner.h"
#include "evalkit/CodeIdentity.h"
#include "support/StringUtils.h"
#include "vm/InstructionCatalog.h"

#include <charconv>

using namespace igdt;

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

std::uint64_t igdt::codeIdentity() { return GeneratedCodeIdentity; }

std::uint64_t igdt::campaignConfigFingerprint(const CampaignOptions &Opts,
                                              std::uint64_t CodeIdentity) {
  // Same chained-combine idiom as the solver's caps fingerprint: the
  // code identity, then every field that can change a record's bytes,
  // in a fixed order. Jobs and the identity-gated replay toggles are
  // deliberately absent (see the header's exclusion argument).
  std::uint64_t H = hashCombine64(0xCF16ull, VerdictSchemaVersion);
  H = hashCombine64(H, CodeIdentity);

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
  // Sim.Engine is deliberately absent: the two engines are proven
  // byte-identical (the engine-identity gate), so a record computed
  // under one may serve the other — the same argument that keeps the
  // replay toggles out. The probe and the cross-engine oracle DO shape
  // record bytes (extra defect family rows), so they are config.
  H = hashCombine64(H, Sim.NativeMiscompileProbe);
  H = hashCombine64(H, Opts.Harness.CrossEngineCheck);

  H = hashCombine64(H, Opts.Harness.SeedSimulationErrors);
  H = hashCombine64(H, Opts.ExploreWorkUnits);
  H = hashCombine64(H, Opts.ReplayWorkUnits);
  H = hashCombine64(H, Opts.MaxAttempts);
  H = hashCombine64(H, Opts.RecordTimings);

  H = hashCombine64(H, Opts.Faults.Faults.size());
  for (const ArmedFault &F : Opts.Faults.Faults) {
    H = hashCombine64(H, std::uint64_t(F.Kind));
    H = hashCombine64(H, stableHash64(F.Instruction));
    H = hashCombine64(H, F.Transient);
  }
  return H;
}

std::string igdt::resultKeyHex(std::uint64_t Key) {
  return formatString("%016llx", static_cast<unsigned long long>(Key));
}

bool igdt::parseResultKeyHex(const std::string &Hex, std::uint64_t &Key) {
  const char *End = Hex.data() + Hex.size();
  auto [Ptr, Ec] = std::from_chars(Hex.data(), End, Key, 16);
  return Hex.size() == 16 && Ec == std::errc() && Ptr == End;
}

std::string igdt::keyedRecordLine(std::uint64_t Key,
                                  const std::string &RecordJson) {
  // RecordJson is a non-empty object: the stamp replaces its '{'.
  std::string Line = "{\"key\":\"" + resultKeyHex(Key) + "\",";
  Line.append(RecordJson, 1, std::string::npos);
  return Line;
}

bool igdt::keyedLineKey(const std::string &Line, std::uint64_t &Key) {
  // keyedRecordLine's layout: {"key":" (8 bytes), 16 hex digits, ",
  return Line.starts_with("{\"key\":\"") && Line.size() > 26 &&
         Line.compare(24, 2, "\",") == 0 &&
         parseResultKeyHex(Line.substr(8, 16), Key);
}

std::uint64_t igdt::resultStoreKey(const InstructionSpec &Spec,
                                   std::uint64_t ConfigFingerprint) {
  return hashCombine64(instructionBodyHash(Spec), ConfigFingerprint);
}
