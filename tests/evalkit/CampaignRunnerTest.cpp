//===- tests/evalkit/CampaignRunnerTest.cpp ------------------------------------===//
//
// Campaign resilience self-tests: every injectable harness fault is
// contained (quarantine, incident report, zero exit), transient faults
// are recovered by the fresh-heap retry, records, incidents and traces
// are byte-identical at Jobs 1/2/4, checkpoint/resume reproduces the
// uninterrupted counts (after a SIGKILL too) and resumes only records
// its own configuration and build keyed, and campaign rows agree with
// a serial per-path replay through the Session façade on the same
// subset.
//
//===----------------------------------------------------------------------===//

#include "evalkit/CampaignRunner.h"

#include "api/Requests.h"
#include "api/Session.h"
#include "evalkit/VerdictStore.h"
#include "faults/DefectCatalog.h"
#include "service/ResultStore.h"
#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace igdt;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "igdt_campaign_" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// First \p N catalog instructions of \p Kind, in catalog order —
/// matches what HarnessOptions::Max* limits select.
std::vector<std::string> firstNames(InstructionKind Kind, unsigned N) {
  std::vector<std::string> Names;
  for (const InstructionSpec &S : allInstructions())
    if (S.Kind == Kind && Names.size() < N)
      Names.push_back(S.Name);
  return Names;
}

CampaignOptions cleanOptions() {
  CampaignOptions Opts;
  Opts.Harness.VM = cleanVMConfig();
  Opts.Harness.Cogit = cleanCogitOptions();
  Opts.Harness.SeedSimulationErrors = false;
  return Opts;
}

const InstructionRecord *findRecord(const CampaignSummary &S,
                                    const std::string &Name) {
  for (const InstructionRecord &R : S.Records)
    if (R.Instruction == Name)
      return &R;
  return nullptr;
}

void expectRowsEqual(const std::vector<CompilerEvaluation> &A,
                     const std::vector<CompilerEvaluation> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Kind, B[I].Kind);
    EXPECT_EQ(A[I].TestedInstructions, B[I].TestedInstructions)
        << compilerKindName(A[I].Kind);
    EXPECT_EQ(A[I].InterpreterPaths, B[I].InterpreterPaths)
        << compilerKindName(A[I].Kind);
    EXPECT_EQ(A[I].CuratedPaths, B[I].CuratedPaths)
        << compilerKindName(A[I].Kind);
    EXPECT_EQ(A[I].DifferingPaths, B[I].DifferingPaths)
        << compilerKindName(A[I].Kind);
    EXPECT_EQ(A[I].Causes, B[I].Causes) << compilerKindName(A[I].Kind);
  }
}

TEST(CampaignRunnerTest, AllFourFaultsAreContainedAndTheCampaignFinishes) {
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                           "bytecodePrim_mul", "bytecodePrim_div",
                           "primitiveAdd",     "primitiveFloatAdd"};
  Opts.Faults.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_sub", false},
      {HarnessFaultKind::HeapCorruption, "bytecodePrim_mul", false},
      {HarnessFaultKind::SimFuelExhaustion, "primitiveAdd", false},
  };
  Opts.IncidentLogPath = tempPath("incidents.jsonl");

  CampaignSummary S = CampaignRunner(Opts).run();

  // The campaign survives every malfunction and processes everything.
  EXPECT_EQ(S.CompletedInstructions, 6u);
  EXPECT_FALSE(S.Stopped);

  // Exactly the faulted instructions are quarantined.
  std::vector<std::string> Expected = Opts.Faults.targets();
  std::vector<std::string> Actual = S.Quarantined;
  std::sort(Expected.begin(), Expected.end());
  std::sort(Actual.begin(), Actual.end());
  EXPECT_EQ(Actual, Expected);

  // Sticky fault + one retry = two incidents per faulted instruction,
  // each attributed to the right stage.
  EXPECT_EQ(S.Incidents.size(), 8u);
  std::map<std::string, std::string> StageOf = {
      {"bytecodePrim_add", "solve"},
      {"bytecodePrim_sub", "compile"},
      {"bytecodePrim_mul", "heap"},
      {"primitiveAdd", "simulate"},
  };
  for (const CampaignIncident &I : S.Incidents) {
    EXPECT_EQ(I.Stage, StageOf[I.Instruction]) << I.Instruction;
    EXPECT_EQ(I.ErrorClass, "harness-fault");
    EXPECT_TRUE(I.Quarantined);
    EXPECT_NE(I.ExploreBudget.find("state="), std::string::npos);
  }

  // The incident report on disk is one parseable JSON object per line.
  std::vector<std::string> Lines = readLines(Opts.IncidentLogPath);
  ASSERT_EQ(Lines.size(), 8u);
  for (const std::string &Line : Lines) {
    auto V = JsonValue::parse(Line);
    ASSERT_TRUE(V.has_value()) << Line;
    EXPECT_NE(StageOf.find(V->stringOr("instruction", "")), StageOf.end());
    EXPECT_EQ(V->stringOr("error_class", ""), "harness-fault");
    EXPECT_FALSE(V->stringOr("error", "").empty());
  }

  // Unfaulted instructions are unaffected...
  for (const char *Name :
       {"bytecodePrim_div", "primitiveFloatAdd"}) {
    const InstructionRecord *R = findRecord(S, Name);
    ASSERT_NE(R, nullptr) << Name;
    EXPECT_FALSE(R->Quarantined) << Name;
    EXPECT_GT(R->Paths, 0u) << Name;
    EXPECT_EQ(R->Attempts, 1u) << Name;
  }

  // ...and with clean configurations no genuine defect exists, so the
  // faults alone must not fail the run.
  EXPECT_EQ(S.exitCode(), 0);
  std::remove(Opts.IncidentLogPath.c_str());
}

TEST(CampaignRunnerTest, ContainmentAndQuarantineSurfaceInTheTrace) {
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                           "primitiveAdd"};
  Opts.Faults.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
      {HarnessFaultKind::SimFuelExhaustion, "primitiveAdd", false},
  };
  TraceBuffer Events;
  Opts.ExtraTraceSink = &Events;

  CampaignSummary S = CampaignRunner(Opts).run();

  // One containment event per incident, carrying the incident's
  // instruction, stage and attempt; one quarantine event per
  // quarantined instruction.
  std::vector<const TraceEvent *> Containments;
  std::vector<std::string> QuarantinedInTrace;
  for (const TraceEvent &Event : Events.events()) {
    if (Event.Kind == TraceEventKind::Containment)
      Containments.push_back(&Event);
    else if (Event.Kind == TraceEventKind::Quarantine)
      QuarantinedInTrace.push_back(Event.Instruction);
  }
  ASSERT_EQ(Containments.size(), S.Incidents.size());
  for (std::size_t I = 0; I < Containments.size(); ++I) {
    EXPECT_EQ(Containments[I]->Instruction, S.Incidents[I].Instruction);
    EXPECT_EQ(Containments[I]->Detail, S.Incidents[I].Stage);
    EXPECT_EQ(Containments[I]->Aux, S.Incidents[I].ErrorClass);
    EXPECT_EQ(Containments[I]->Attempt, S.Incidents[I].Attempt);
  }
  std::vector<std::string> Quarantined = S.Quarantined;
  std::sort(Quarantined.begin(), Quarantined.end());
  std::sort(QuarantinedInTrace.begin(), QuarantinedInTrace.end());
  EXPECT_EQ(QuarantinedInTrace, Quarantined);

  // Events from the faulted attempts are still attributed correctly:
  // every event of the stream names a worklist instruction.
  for (const TraceEvent &Event : Events.events())
    EXPECT_NE(std::find(Opts.OnlyInstructions.begin(),
                        Opts.OnlyInstructions.end(), Event.Instruction),
              Opts.OnlyInstructions.end())
        << traceEventKindName(Event.Kind);

  // Metrics were folded as part of observing: solver counters always,
  // event counters because a sink was attached.
  EXPECT_EQ(S.Metrics.counter("campaign.quarantined"), S.Quarantined.size());
  EXPECT_EQ(S.Metrics.counter("campaign.incidents"), S.Incidents.size());
  EXPECT_EQ(S.Metrics.counter("solver.queries"), S.Solver.Queries);
  EXPECT_GT(S.Metrics.counter("events.path-verdict"), 0u);
}

TEST(CampaignRunnerTest, TransientFaultIsRecoveredByTheFreshHeapRetry) {
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add"};
  Opts.Faults.Faults = {
      {HarnessFaultKind::HeapCorruption, "bytecodePrim_add",
       /*Transient=*/true}};

  CampaignSummary S = CampaignRunner(Opts).run();

  EXPECT_TRUE(S.Quarantined.empty());
  const InstructionRecord *R = findRecord(S, "bytecodePrim_add");
  ASSERT_NE(R, nullptr);
  EXPECT_FALSE(R->Quarantined);
  EXPECT_EQ(R->Attempts, 2u) << "recovered on the fresh-heap retry";
  EXPECT_GT(R->Paths, 0u);

  // The first attempt's failure is still on the record, but marked as
  // not leading to quarantine.
  ASSERT_EQ(S.Incidents.size(), 1u);
  EXPECT_EQ(S.Incidents[0].Stage, "heap");
  EXPECT_EQ(S.Incidents[0].Attempt, 1u);
  EXPECT_FALSE(S.Incidents[0].Quarantined);
  EXPECT_EQ(S.exitCode(), 0);
}

TEST(CampaignRunnerTest, CheckpointResumeReproducesTheUninterruptedCounts) {
  // Seeded defects on, so the counts being compared are non-trivial.
  CampaignOptions Base;
  Base.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_bitAnd",
                           "primitiveFloatAdd", "primitiveFFILoadInt8"};

  CampaignSummary Uninterrupted = CampaignRunner(Base).run();
  EXPECT_EQ(Uninterrupted.CompletedInstructions, 4u);

  // Same campaign, but killed after two new instructions...
  CampaignOptions Interrupted = Base;
  Interrupted.CheckpointPath = tempPath("checkpoint.jsonl");
  Interrupted.StopAfter = 2;
  CampaignSummary FirstHalf = CampaignRunner(Interrupted).run();
  EXPECT_TRUE(FirstHalf.Stopped);
  EXPECT_EQ(FirstHalf.CompletedInstructions, 2u);
  EXPECT_EQ(readLines(Interrupted.CheckpointPath).size(), 2u);

  // ...and restarted over the same checkpoint file.
  CampaignOptions Resumed = Interrupted;
  Resumed.StopAfter = 0;
  CampaignSummary Second = CampaignRunner(Resumed).run();
  EXPECT_FALSE(Second.Stopped);
  EXPECT_EQ(Second.ResumedInstructions, 2u);
  EXPECT_EQ(Second.CompletedInstructions, 2u);
  EXPECT_EQ(Second.Records.size(), 4u);

  // Exploration is deterministic, so the resumed campaign's Table 2
  // must be byte-for-byte the uninterrupted one's.
  expectRowsEqual(Second.Rows, Uninterrupted.Rows);
  EXPECT_EQ(Second.exitCode(), Uninterrupted.exitCode());
  std::remove(Interrupted.CheckpointPath.c_str());
}

TEST(CampaignRunnerTest, ExitCodeFlagsGenuineDefectsNotHarnessFaults) {
  // Seeded defects: bytecodePrim_bitAnd exposes the behavioural
  // bit-ops difference, so the campaign must fail the build.
  CampaignOptions Seeded;
  Seeded.OnlyInstructions = {"bytecodePrim_bitAnd"};
  CampaignSummary Bad = CampaignRunner(Seeded).run();
  EXPECT_GT(Bad.Rows[1].DifferingPaths, 0u); // the SimpleStack row
  EXPECT_EQ(Bad.exitCode(), 1);

  // The same instruction with clean configurations and a sticky fault:
  // quarantine, but no defect — exit zero.
  CampaignOptions Clean = cleanOptions();
  Clean.OnlyInstructions = {"bytecodePrim_bitAnd", "bytecodePrim_add"};
  Clean.Faults.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false}};
  CampaignSummary Good = CampaignRunner(Clean).run();
  EXPECT_EQ(Good.Quarantined, std::vector<std::string>{"bytecodePrim_add"});
  EXPECT_EQ(Good.exitCode(), 0);
}

TEST(CampaignRunnerTest, CampaignRowsMatchPerPathFacadeReplay) {
  // The campaign must report the exact counts a plain serial replay
  // reports for the same subset — containment must not perturb a
  // healthy run. The reference explores each instruction and tests
  // every path on both back-ends through the Session façade, unioning
  // differences per path like Table 2 does. The first catalog entries
  // replay cleanly, so four seeded defects join them to give the
  // comparison differences to disagree on: an optimisation difference
  // (add), a behavioural difference (bitAnd), a missing compiled type
  // check (FloatAdd) and the arm F5 simulation error (Rounded).
  std::vector<std::string> Bytecodes =
      firstNames(InstructionKind::Bytecode, 3);
  Bytecodes.insert(Bytecodes.end(),
                   {"bytecodePrim_add", "bytecodePrim_bitAnd"});
  std::vector<std::string> Natives =
      firstNames(InstructionKind::NativeMethod, 2);
  Natives.insert(Natives.end(), {"primitiveFloatAdd", "primitiveRounded"});

  CampaignOptions Opts;
  Opts.OnlyInstructions = Bytecodes;
  Opts.OnlyInstructions.insert(Opts.OnlyInstructions.end(), Natives.begin(),
                               Natives.end());
  CampaignSummary S = CampaignRunner(Opts).run();

  Session Facade;
  std::vector<CompilerEvaluation> Expected;
  for (CompilerKind Kind :
       {CompilerKind::NativeMethod, CompilerKind::SimpleStack,
        CompilerKind::StackToRegister, CompilerKind::RegisterAllocating}) {
    CompilerEvaluation Row;
    Row.Kind = Kind;
    for (const std::string &Name :
         Kind == CompilerKind::NativeMethod ? Natives : Bytecodes) {
      ExplorationResult R = Facade.explore(Name);
      ++Row.TestedInstructions;
      Row.InterpreterPaths += static_cast<unsigned>(R.Paths.size());
      Row.CuratedPaths += R.curatedCount();
      for (std::size_t I = 0; I < R.Paths.size(); ++I) {
        bool Differs = false;
        for (bool Arm : {false, true}) {
          PathTestOutcome O = Facade.testPath(R, I, Kind, Arm);
          if (O.Status != PathTestStatus::Difference)
            continue;
          Differs = true;
          Row.Causes.emplace(O.CauseKey, O.Family);
        }
        Row.DifferingPaths += Differs;
      }
    }
    Expected.push_back(std::move(Row));
  }

  expectRowsEqual(S.Rows, Expected);
  for (const CompilerEvaluation &Row : Expected)
    EXPECT_GT(Row.DifferingPaths, 0u) << compilerKindName(Row.Kind);
  EXPECT_TRUE(std::any_of(
      Expected[0].Causes.begin(), Expected[0].Causes.end(),
      [](const auto &Cause) {
        return Cause.second == DefectFamily::SimulationError;
      }));
}

TEST(CampaignRunnerTest, ParallelCampaignIsByteIdenticalToSerial) {
  // The Jobs determinism contract, under the worst conditions we can
  // arrange: all four harness faults armed (quarantines + retries),
  // a mixed bytecode/primitive subset, and checkpoint files compared
  // byte for byte (RecordTimings off zeroes the one nondeterministic
  // field).
  CampaignOptions Base = cleanOptions();
  Base.Harness.MaxBytecodes = 10;
  Base.Harness.MaxNativeMethods = 6;
  Base.RecordTimings = false;
  Base.Faults.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_sub", false},
      {HarnessFaultKind::HeapCorruption, "bytecodePrim_mul", false},
      {HarnessFaultKind::SimFuelExhaustion, "primitiveAdd", false},
  };

  CampaignOptions SerialOpts = Base;
  SerialOpts.Jobs = 1;
  SerialOpts.CheckpointPath = tempPath("serial_ckpt.jsonl");
  CampaignSummary Serial = CampaignRunner(SerialOpts).run();

  CampaignOptions ParallelOpts = Base;
  ParallelOpts.Jobs = 4;
  ParallelOpts.CheckpointPath = tempPath("parallel_ckpt.jsonl");
  CampaignSummary Parallel = CampaignRunner(ParallelOpts).run();

  expectRowsEqual(Serial.Rows, Parallel.Rows);
  EXPECT_EQ(Serial.Quarantined, Parallel.Quarantined);
  EXPECT_EQ(Serial.exitCode(), Parallel.exitCode());
  EXPECT_EQ(Serial.CompletedInstructions, Parallel.CompletedInstructions);

  // Incidents merge in catalog order, so the sequences agree field by
  // field (budget descriptions embed wall-clock millis, so records are
  // compared structurally, not as raw bytes).
  ASSERT_EQ(Serial.Incidents.size(), Parallel.Incidents.size());
  for (std::size_t I = 0; I < Serial.Incidents.size(); ++I) {
    EXPECT_EQ(Serial.Incidents[I].Instruction, Parallel.Incidents[I].Instruction);
    EXPECT_EQ(Serial.Incidents[I].Stage, Parallel.Incidents[I].Stage);
    EXPECT_EQ(Serial.Incidents[I].ErrorClass, Parallel.Incidents[I].ErrorClass);
    EXPECT_EQ(Serial.Incidents[I].Attempt, Parallel.Incidents[I].Attempt);
    EXPECT_EQ(Serial.Incidents[I].Quarantined, Parallel.Incidents[I].Quarantined);
  }

  // Per-instruction path counts are identical at any Jobs value: each
  // exploration is a pure function of (instruction name, base seed),
  // never of which worker ran it or what ran before it.
  ASSERT_EQ(Serial.Records.size(), Parallel.Records.size());
  for (std::size_t I = 0; I < Serial.Records.size(); ++I) {
    EXPECT_EQ(Serial.Records[I].Instruction, Parallel.Records[I].Instruction);
    EXPECT_EQ(Serial.Records[I].Paths, Parallel.Records[I].Paths)
        << Serial.Records[I].Instruction;
    EXPECT_EQ(Serial.Records[I].CuratedPaths, Parallel.Records[I].CuratedPaths)
        << Serial.Records[I].Instruction;
  }

  // The checkpoint files are byte-identical.
  EXPECT_EQ(readLines(SerialOpts.CheckpointPath),
            readLines(ParallelOpts.CheckpointPath));

  // The deterministic part of the solver reduction agrees too (the
  // cache hit/miss counters are scheduling-dependent by design).
  EXPECT_EQ(Serial.Solver.Queries, Parallel.Solver.Queries);
  EXPECT_EQ(Serial.Solver.SatCount, Parallel.Solver.SatCount);
  EXPECT_EQ(Serial.Solver.UnsatCount, Parallel.Solver.UnsatCount);
  EXPECT_EQ(Serial.Solver.UnknownCount, Parallel.Solver.UnknownCount);
  EXPECT_EQ(Serial.Solver.CasesExplored, Parallel.Solver.CasesExplored);
  EXPECT_EQ(Serial.Solver.NodesExplored, Parallel.Solver.NodesExplored);

  std::remove(SerialOpts.CheckpointPath.c_str());
  std::remove(ParallelOpts.CheckpointPath.c_str());
}

TEST(CampaignRunnerTest, ParallelResumeAfterStopAfterMatchesSerial) {
  // A parallel campaign killed by StopAfter and resumed in parallel
  // must reproduce an uninterrupted serial run byte for byte.
  CampaignOptions Base;
  Base.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_bitAnd",
                           "primitiveFloatAdd", "primitiveFFILoadInt8"};
  Base.RecordTimings = false;

  CampaignOptions SerialOpts = Base;
  SerialOpts.Jobs = 1;
  CampaignSummary Uninterrupted = CampaignRunner(SerialOpts).run();

  CampaignOptions Interrupted = Base;
  Interrupted.Jobs = 4;
  Interrupted.CheckpointPath = tempPath("parallel_resume.jsonl");
  Interrupted.StopAfter = 2;
  CampaignSummary FirstHalf = CampaignRunner(Interrupted).run();
  EXPECT_TRUE(FirstHalf.Stopped);
  EXPECT_EQ(FirstHalf.CompletedInstructions, 2u);
  EXPECT_EQ(readLines(Interrupted.CheckpointPath).size(), 2u);

  CampaignOptions Resumed = Interrupted;
  Resumed.StopAfter = 0;
  CampaignSummary Second = CampaignRunner(Resumed).run();
  EXPECT_FALSE(Second.Stopped);
  EXPECT_EQ(Second.ResumedInstructions, 2u);
  EXPECT_EQ(Second.Records.size(), 4u);

  expectRowsEqual(Second.Rows, Uninterrupted.Rows);
  EXPECT_EQ(Second.exitCode(), Uninterrupted.exitCode());
  std::remove(Interrupted.CheckpointPath.c_str());
}

TEST(CampaignRunnerTest, RecordsRoundTripThroughTheCheckpointFormat) {
  CampaignOptions Opts;
  Opts.OnlyInstructions = {"bytecodePrim_add", "primitiveFloatAdd"};
  CampaignSummary S = CampaignRunner(Opts).run();
  ASSERT_EQ(S.Records.size(), 2u);

  std::vector<InstructionRecord> Reloaded;
  for (const InstructionRecord &R : S.Records) {
    InstructionRecord Out;
    ASSERT_TRUE(InstructionRecord::fromJson(R.toJson(), Out))
        << R.toJson();
    EXPECT_EQ(Out.toJson(), R.toJson());
    Reloaded.push_back(std::move(Out));
  }
  // Aggregation over reloaded records gives identical rows: the
  // checkpoint loses nothing Table 2 needs.
  expectRowsEqual(aggregateCampaignRows(Reloaded),
                  aggregateCampaignRows(S.Records));
}

std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

TEST(CampaignRunnerTest, StoreHitsAreValidatedBeforeTheyAreServed) {
  // Planning parses each store hit once and serves the parsed record.
  // That one parse is also the validation: a line that does not parse
  // back to the looked-up instruction's record is a miss and runs
  // fresh, so the checkpoint matches a store-less run byte for byte.
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                           "bytecodePrim_mul", "bytecodePrim_div"};
  Opts.RecordTimings = false;
  Opts.CheckpointPath = tempPath("validated_reference.jsonl");
  CampaignSummary Reference = CampaignRunner(Opts).run();
  std::vector<std::string> Lines = readLines(Opts.CheckpointPath);
  ASSERT_EQ(Lines.size(), 4u);
  ASSERT_NE(Lines[2].find("\"bytecodePrim_mul\""), std::string::npos);
  ASSERT_NE(Lines[3].find("\"bytecodePrim_div\""), std::string::npos);
  std::string ReferenceBytes = slurpFile(Opts.CheckpointPath);
  std::remove(Opts.CheckpointPath.c_str());

  ResultStore Store(""); // in memory
  Opts.Store = &Store;
  const std::uint64_t Fp = campaignConfigFingerprint(Opts);
  auto KeyOf = [&](const char *Name) {
    return resultStoreKey(*findInstruction(Name), Fp);
  };
  // Garbled: a number outside the JSON grammar, which a lenient reader
  // would truncate to a plausible path count.
  std::string Garbled = Lines[0];
  std::size_t Paths = Garbled.find("\"paths\":");
  ASSERT_NE(Paths, std::string::npos);
  Garbled.insert(Paths + 8, "1-");
  ASSERT_FALSE(JsonValue::parse(Garbled).has_value());
  Store.put(KeyOf("bytecodePrim_add"), "bytecodePrim_add", Garbled);
  // A well-formed record of another instruction under sub's key.
  Store.put(KeyOf("bytecodePrim_sub"), "bytecodePrim_sub", Lines[2]);
  // A genuine hit.
  Store.put(KeyOf("bytecodePrim_mul"), "bytecodePrim_mul", Lines[2]);
  // Out of range: a negative count is inside the JSON grammar, but no
  // unsigned field holds it, and casting it would be undefined.
  std::string Negative = Lines[3];
  std::size_t Attempts = Negative.find("\"attempts\":1,");
  ASSERT_NE(Attempts, std::string::npos);
  Negative.replace(Attempts + 11, 1, "-1");
  ASSERT_TRUE(JsonValue::parse(Negative).has_value());
  Store.put(KeyOf("bytecodePrim_div"), "bytecodePrim_div", Negative);

  Opts.CheckpointPath = tempPath("validated_store.jsonl");
  CampaignSummary Served = CampaignRunner(Opts).run();
  EXPECT_EQ(Served.StoreHits, 1u);
  EXPECT_EQ(Served.StoreServed, 1u);
  EXPECT_EQ(Served.StoreMisses, 3u);
  EXPECT_EQ(Served.StoreStores, 3u);
  EXPECT_GT(Served.LiveSolver.Queries, 0u);
  ASSERT_EQ(Served.Records.size(), 4u);
  for (std::size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Served.Records[I].toJson(), Reference.Records[I].toJson());
  EXPECT_EQ(slurpFile(Opts.CheckpointPath), ReferenceBytes);
  std::remove(Opts.CheckpointPath.c_str());
}

/// Reads the checkpoint as each instruction's first trace event
/// arrives, and checks it already holds exactly the records of every
/// earlier instruction, as complete lines.
class CheckpointProbe final : public TraceSink {
public:
  explicit CheckpointProbe(std::string Path) : Path(std::move(Path)) {}

  void emit(TraceEvent Event) override {
    if (Event.Instruction.empty() ||
        (!Seen.empty() && Seen.back() == Event.Instruction))
      return;
    std::string Bytes = slurpFile(Path);
    EXPECT_TRUE(Bytes.empty() || Bytes.back() == '\n')
        << "torn line before " << Event.Instruction;
    std::vector<std::string> Lines = readLines(Path);
    EXPECT_EQ(Lines.size(), Seen.size()) << "before " << Event.Instruction;
    for (std::size_t I = 0; I < Lines.size() && I < Seen.size(); ++I) {
      InstructionRecord Rec;
      EXPECT_TRUE(InstructionRecord::fromJson(Lines[I], Rec)) << Lines[I];
      EXPECT_EQ(Rec.Instruction, Seen[I]);
    }
    Seen.push_back(Event.Instruction);
    ++Probes;
  }

  std::string Path;
  std::vector<std::string> Seen;
  unsigned Probes = 0;
};

TEST(CampaignRunnerTest, CheckpointHoldsEveryEarlierRecordAsTheNextMerges) {
  // The run keeps one checkpoint stream open and flushes it per record;
  // a record must be on disk before the next instruction's events are
  // published, at any Jobs value, or a SIGKILL would lose merged work.
  for (unsigned Jobs : {1u, 4u}) {
    CampaignOptions Opts = cleanOptions();
    Opts.Harness.MaxBytecodes = 4;
    Opts.Harness.MaxNativeMethods = 3;
    Opts.RecordTimings = false;
    Opts.Jobs = Jobs;
    Opts.CheckpointPath = tempPath("durable.jsonl");
    CheckpointProbe Probe(Opts.CheckpointPath);
    Opts.ExtraTraceSink = &Probe;
    CampaignSummary S = CampaignRunner(Opts).run();
    EXPECT_EQ(S.CompletedInstructions, 7u) << "jobs=" << Jobs;
    EXPECT_EQ(Probe.Probes, 7u) << "jobs=" << Jobs;
    EXPECT_EQ(readLines(Opts.CheckpointPath).size(), 7u) << "jobs=" << Jobs;
    std::remove(Opts.CheckpointPath.c_str());
  }
}

unsigned totalPaths(const CampaignSummary &S) {
  unsigned Paths = 0;
  for (const InstructionRecord &R : S.Records)
    Paths += R.Paths;
  return Paths;
}

TEST(CampaignRunnerTest, ResumeNeverServesARecordOfAnotherConfiguration) {
  // table2_differences --deterministic --only bytecodePrim_add
  // --only primitiveAdd, first with --explore-work-units 1 and then
  // without it, on one checkpoint. The starved run's records are keyed
  // by its budget, so the unbudgeted run must re-run both instructions
  // and print the fresh run's Table 2, not the starved one's.
  CampaignRequest Fresh;
  Fresh.Deterministic = true;
  Fresh.OnlyInstructions = {"bytecodePrim_add", "primitiveAdd"};
  CampaignSummary Reference = Session(Fresh.toSessionConfig()).runCampaign();
  ASSERT_EQ(Reference.Records.size(), 2u);

  CampaignRequest Starved = Fresh;
  Starved.ExploreWorkUnits = 1;
  Starved.CheckpointPath = tempPath("starved.jsonl");
  CampaignSummary First = Session(Starved.toSessionConfig()).runCampaign();
  ASSERT_EQ(First.Records.size(), 2u);
  ASSERT_LT(totalPaths(First), totalPaths(Reference));

  CampaignRequest Unbudgeted = Fresh;
  Unbudgeted.CheckpointPath = Starved.CheckpointPath;
  CampaignSummary Second =
      Session(Unbudgeted.toSessionConfig()).runCampaign();
  EXPECT_EQ(Second.ResumedInstructions, 0u);
  EXPECT_EQ(Second.CompletedInstructions, 2u);
  EXPECT_EQ(Second.Metrics.counter("campaign.resume_stale"), 2u);
  EXPECT_EQ(totalPaths(Second), totalPaths(Reference));
  expectRowsEqual(Second.Rows, Reference.Rows);
  ASSERT_EQ(Second.Records.size(), 2u);
  for (std::size_t I = 0; I < 2; ++I)
    EXPECT_EQ(Second.Records[I].toJson(), Reference.Records[I].toJson());

  // Both configurations' records now sit in the checkpoint, and each
  // configuration resumes its own.
  for (const CampaignRequest *Request : {&Starved, &Unbudgeted}) {
    CampaignSummary Again = Session(Request->toSessionConfig()).runCampaign();
    EXPECT_EQ(Again.ResumedInstructions, 2u);
    EXPECT_EQ(Again.CompletedInstructions, 0u);
    EXPECT_EQ(Again.Metrics.counter("campaign.resume_stale"), 0u);
    EXPECT_EQ(totalPaths(Again), totalPaths(Request == &Starved ? First
                                                                : Reference));
  }
  std::remove(Starved.CheckpointPath.c_str());
}

TEST(CampaignRunnerTest, UnkeyedCheckpointRecordsAreReRunAndCountedStale) {
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                           "bytecodePrim_mul"};
  Opts.RecordTimings = false;
  Opts.CheckpointPath = tempPath("keyed_reference.jsonl");
  CampaignSummary Reference = CampaignRunner(Opts).run();
  ASSERT_EQ(Reference.Records.size(), 3u);
  const std::string ReferenceBytes = slurpFile(Opts.CheckpointPath);
  std::remove(Opts.CheckpointPath.c_str());

  // Every line is the record stamped with its content address.
  const std::uint64_t Fp = campaignConfigFingerprint(Opts);
  std::string Expected;
  for (const InstructionRecord &R : Reference.Records)
    Expected += keyedRecordLine(
                    resultStoreKey(*findInstruction(R.Instruction), Fp),
                    R.toJson()) +
                "\n";
  EXPECT_EQ(ReferenceBytes, Expected);

  // A checkpoint an older binary wrote: the same records, unkeyed. No
  // key says which configuration made them, so all three re-run.
  Opts.CheckpointPath = tempPath("unkeyed.jsonl");
  std::string OldBytes;
  for (const InstructionRecord &R : Reference.Records)
    OldBytes += R.toJson() + "\n";
  std::ofstream(Opts.CheckpointPath, std::ios::binary) << OldBytes;
  CampaignSummary S = CampaignRunner(Opts).run();
  EXPECT_EQ(S.ResumedInstructions, 0u);
  EXPECT_EQ(S.CompletedInstructions, 3u);
  EXPECT_EQ(S.Metrics.counter("campaign.resume_stale"), 3u);
  EXPECT_GT(S.LiveSolver.Queries, 0u);
  ASSERT_EQ(S.Records.size(), 3u);
  for (std::size_t I = 0; I < 3; ++I)
    EXPECT_EQ(S.Records[I].toJson(), Reference.Records[I].toJson());
  EXPECT_EQ(slurpFile(Opts.CheckpointPath), OldBytes + ReferenceBytes);

  // The re-run's keyed lines now resume, and nothing is stale.
  CampaignSummary Again = CampaignRunner(Opts).run();
  EXPECT_EQ(Again.ResumedInstructions, 3u);
  EXPECT_EQ(Again.CompletedInstructions, 0u);
  EXPECT_EQ(Again.Metrics.counter("campaign.resume_stale"), 0u);
  EXPECT_EQ(slurpFile(Opts.CheckpointPath), OldBytes + ReferenceBytes);
  std::remove(Opts.CheckpointPath.c_str());
}

TEST(CampaignRunnerTest, RecordsOfAnotherBuildAreReRunAndCountedStale) {
  // Every key carries the code identity, a hash of the sources a record
  // is a function of. A checkpoint line keyed under another identity
  // stands for a record an edited compiler or solver left behind: it
  // must re-run, never resume, even though its configuration matches.
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "primitiveAdd"};
  Opts.RecordTimings = false;
  CampaignSummary Reference = CampaignRunner(Opts).run();
  ASSERT_EQ(Reference.Records.size(), 2u);

  // The other build's records differ from this one's, so serving one
  // would show in the records.
  const std::uint64_t OtherBuild =
      campaignConfigFingerprint(Opts, codeIdentity() + 1);
  ASSERT_NE(OtherBuild, campaignConfigFingerprint(Opts));
  std::string OtherBytes;
  for (InstructionRecord R : Reference.Records) {
    R.Paths += 1;
    OtherBytes +=
        keyedRecordLine(resultStoreKey(*findInstruction(R.Instruction),
                                       OtherBuild),
                        R.toJson()) +
        "\n";
  }
  Opts.CheckpointPath = tempPath("other_build.jsonl");
  std::ofstream(Opts.CheckpointPath, std::ios::binary) << OtherBytes;

  CampaignSummary S = CampaignRunner(Opts).run();
  EXPECT_EQ(S.ResumedInstructions, 0u);
  EXPECT_EQ(S.CompletedInstructions, 2u);
  EXPECT_EQ(S.Metrics.counter("campaign.resume_stale"), 2u);
  EXPECT_GT(S.LiveSolver.Queries, 0u);
  ASSERT_EQ(S.Records.size(), 2u);
  for (std::size_t I = 0; I < 2; ++I)
    EXPECT_EQ(S.Records[I].toJson(), Reference.Records[I].toJson());
  std::remove(Opts.CheckpointPath.c_str());
}

/// All four stage faults, one per instruction, plus six clean
/// instructions.
CampaignOptions fourFaultScenario() {
  CampaignOptions Opts = cleanOptions();
  Opts.RecordTimings = false;
  Opts.OnlyInstructions = {"bytecodePrim_add",      "bytecodePrim_sub",
                           "bytecodePrim_mul",      "bytecodePrim_div",
                           "primitiveAdd",          "primitiveFloatAdd",
                           "primitiveFloatSubtract", "primitiveFloatMultiply",
                           "primitiveFloatDivide",  "primitiveFloatLessThan"};
  Opts.Faults.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
      {HarnessFaultKind::SimFuelExhaustion, "bytecodePrim_sub", false},
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_mul", false},
      {HarnessFaultKind::HeapCorruption, "bytecodePrim_div", false},
  };
  return Opts;
}

TEST(CampaignRunnerTest, RecordsAreByteIdenticalAcrossTopologies) {
  // Two worklists: all four harness faults at once; and the full clean
  // catalog under a per-instruction budget of 3 explore units, where
  // frontiers starve and each record depends on where its own budget
  // ran out. Checkpoint, incident and trace files must agree byte for
  // byte at every Jobs value.
  CampaignOptions Budgeted = cleanOptions();
  Budgeted.RecordTimings = false;
  Budgeted.ExploreBudget.WorkUnits = 3;
  const struct {
    const char *Name;
    CampaignOptions Base;
    std::size_t Completed;
    std::size_t Quarantined;
  } Scenarios[] = {{"four", fourFaultScenario(), 10, 4},
                   {"budgeted", Budgeted, allInstructions().size(), 0}};
  const unsigned JobsValues[] = {1, 2, 4};

  for (const auto &Scenario : Scenarios) {
    std::vector<std::string> Checkpoints;
    std::vector<std::string> Incidents;
    std::vector<std::string> Traces;
    for (unsigned Jobs : JobsValues) {
      const std::string Where =
          std::string(Scenario.Name) + "_j" + std::to_string(Jobs);
      CampaignOptions Opts = Scenario.Base;
      Opts.Jobs = Jobs;
      Opts.CheckpointPath = tempPath(Where + "_ckpt.jsonl");
      Opts.IncidentLogPath = tempPath(Where + "_inc.jsonl");
      Opts.TracePath = tempPath(Where + "_trace.jsonl");
      CampaignSummary S = CampaignRunner(Opts).run();
      EXPECT_EQ(S.CompletedInstructions, Scenario.Completed) << Where;
      EXPECT_EQ(S.Quarantined.size(), Scenario.Quarantined) << Where;
      if (Scenario.Base.ExploreBudget.WorkUnits) {
        EXPECT_TRUE(std::any_of(S.Records.begin(), S.Records.end(),
                                [](const InstructionRecord &R) {
                                  return R.BudgetExhausted;
                                }))
            << Where;
      }
      Checkpoints.push_back(slurpFile(Opts.CheckpointPath));
      Incidents.push_back(slurpFile(Opts.IncidentLogPath));
      Traces.push_back(slurpFile(Opts.TracePath));
      std::remove(Opts.CheckpointPath.c_str());
      std::remove(Opts.IncidentLogPath.c_str());
      std::remove(Opts.TracePath.c_str());
    }
    ASSERT_FALSE(Checkpoints[0].empty()) << Scenario.Name;
    ASSERT_FALSE(Traces[0].empty()) << Scenario.Name;
    EXPECT_EQ(Incidents[0].empty(), Scenario.Quarantined == 0)
        << Scenario.Name;
    for (std::size_t I = 1; I < std::size(JobsValues); ++I) {
      const std::string Where =
          std::string(Scenario.Name) + "_j" + std::to_string(JobsValues[I]);
      EXPECT_EQ(Checkpoints[0], Checkpoints[I]) << Where;
      EXPECT_EQ(Incidents[0], Incidents[I]) << Where;
      EXPECT_EQ(Traces[0], Traces[I]) << Where;
    }
  }
}

std::vector<std::string> recordLines(const CampaignSummary &S) {
  std::vector<std::string> Lines;
  for (const InstructionRecord &R : S.Records)
    Lines.push_back(R.toJson());
  return Lines;
}

std::vector<std::string> incidentLines(const CampaignSummary &S) {
  std::vector<std::string> Lines;
  for (const CampaignIncident &I : S.Incidents)
    Lines.push_back(I.toJson());
  return Lines;
}

TEST(CampaignRunnerTest, KilledCoordinatorResumesToIdenticalRecords) {
  // The full catalog, so the kill lands while the campaign still runs:
  // a short worklist finishes before the first poll on a fast host.
  CampaignOptions Base = cleanOptions();
  Base.RecordTimings = false;
  Base.Jobs = 2;
  const std::string Ckpt = tempPath("kill_ckpt.jsonl");

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Campaign-under-test: checkpointed, then vanish. The parent
    // SIGKILLs us mid-run; _exit keeps gtest state untouched.
    CampaignOptions Opts = Base;
    Opts.CheckpointPath = Ckpt;
    CampaignRunner(Opts).run();
    ::_exit(0);
  }

  // Wait until at least two records hit the checkpoint (proof the
  // incremental merge published them before campaign end), then kill
  // the campaign outright. Tolerate the child finishing first.
  bool Exited = false;
  int Status = 0;
  for (int Spin = 0; Spin < 100000 && !Exited; ++Spin) {
    if (::waitpid(Child, &Status, WNOHANG) == Child) {
      Exited = true;
      break;
    }
    if (readLines(Ckpt).size() >= 2)
      break;
    ::usleep(200);
  }
  if (!Exited) {
    ::kill(Child, SIGKILL);
    while (::waitpid(Child, &Status, 0) < 0 && errno == EINTR) {
    }
  }

  // Resume over the survivor checkpoint at the same Jobs value.
  CampaignOptions Resume = Base;
  Resume.CheckpointPath = Ckpt;
  CampaignSummary Resumed = CampaignRunner(Resume).run();
  EXPECT_EQ(Resumed.CompletedInstructions + Resumed.ResumedInstructions,
            allInstructions().size());

  // An uninterrupted inline reference run must agree record for record.
  CampaignOptions Ref = Base;
  Ref.Jobs = 1;
  CampaignSummary Reference = CampaignRunner(Ref).run();
  EXPECT_EQ(recordLines(Resumed), recordLines(Reference));
  EXPECT_EQ(incidentLines(Resumed), incidentLines(Reference));
  std::remove(Ckpt.c_str());
}

} // namespace
