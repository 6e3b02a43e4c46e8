//===- tests/evalkit/ProcessPoolTest.cpp ---------------------------------------===//
//
// Out-of-process campaign workers: the wire protocol rejects damaged
// frames, every worker-class fault (segfault, hard hang, pipe-message
// corruption) is contained as an incident + quarantine, transient
// worker faults recover on a fresh worker, records/incidents/traces
// are byte-identical at Jobs 1/4 and WorkerProcesses 0/1/4 (under the
// worker faults, under all seven harness faults, and for the full
// catalog on a starving explore budget) and across the fork-unavailable
// fallback, and a SIGKILLed coordinator resumes from its checkpoint to
// the same final records.
//
//===----------------------------------------------------------------------===//

#include "evalkit/ProcessPool.h"

#include "evalkit/CampaignRunner.h"
#include "evalkit/WireProtocol.h"
#include "faults/DefectCatalog.h"
#include "faults/HarnessFaults.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#define IGDT_TEST_HAS_FORK 1
#else
#define IGDT_TEST_HAS_FORK 0
#endif

using namespace igdt;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "igdt_procpool_" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
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

/// First \p N catalog instructions of \p Kind, in catalog order.
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
  Opts.RecordTimings = false;
  // Generous watchdog: long enough for a legitimate item even under
  // sanitizers, short enough that the armed-hang tests stay quick.
  Opts.WorkerDeadlineMillis = 2000;
  Opts.WorkerBackoffMillis = 1;
  return Opts;
}

const InstructionRecord *findRecord(const CampaignSummary &S,
                                    const std::string &Name) {
  for (const InstructionRecord &R : S.Records)
    if (R.Instruction == Name)
      return &R;
  return nullptr;
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

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(WireProtocolTest, Crc32MatchesTheReferenceVector) {
  // The canonical IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(WireProtocolTest, FramesRoundTripThroughTheDecoder) {
  std::string Payload = "17 2";
  std::string Bytes = encodeFrame(FrameType::Assign, Payload);
  Bytes += encodeFrame(FrameType::Result, std::string("x\0y", 3));
  Bytes += encodeFrame(FrameType::Shutdown, "");

  FrameDecoder Decoder;
  // Feed byte-by-byte: reassembly must not depend on read boundaries.
  WireFrame Frame;
  std::vector<WireFrame> Frames;
  for (char C : Bytes) {
    Decoder.feed(&C, 1);
    while (Decoder.next(Frame) == FrameDecoder::Status::Frame)
      Frames.push_back(Frame);
  }
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_EQ(Frames[0].Type, FrameType::Assign);
  EXPECT_EQ(Frames[0].Payload, Payload);
  EXPECT_EQ(Frames[1].Type, FrameType::Result);
  EXPECT_EQ(Frames[1].Payload, std::string("x\0y", 3));
  EXPECT_EQ(Frames[2].Type, FrameType::Shutdown);
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::NeedMore);
}

TEST(WireProtocolTest, DecoderRejectsDamageAndStaysPoisoned) {
  // A frame encoded with CorruptPayload fails its own CRC.
  std::string Bad = encodeFrame(FrameType::Result, "payload",
                                /*CorruptPayload=*/true);
  FrameDecoder Decoder;
  Decoder.feed(Bad.data(), Bad.size());
  WireFrame Frame;
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::Corrupt);

  // Corruption is sticky until reset: even a pristine frame after it
  // is distrusted (the stream lost synchronisation).
  std::string Good = encodeFrame(FrameType::Result, "payload");
  Decoder.feed(Good.data(), Good.size());
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::Corrupt);
  Decoder.reset();
  Decoder.feed(Good.data(), Good.size());
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::Frame);
  EXPECT_EQ(Frame.Payload, "payload");

  // Wrong magic and a truncated tail are also rejected / held back.
  std::string Magic = Good;
  Magic[0] ^= 0xFF;
  Decoder.reset();
  Decoder.feed(Magic.data(), Magic.size());
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::Corrupt);

  Decoder.reset();
  Decoder.feed(Good.data(), Good.size() - 1);
  EXPECT_EQ(Decoder.next(Frame), FrameDecoder::Status::NeedMore);
}

//===----------------------------------------------------------------------===//
// Worker-fault containment
//===----------------------------------------------------------------------===//

/// Shared scenario: three sticky worker faults on three instructions,
/// one ordinary harness fault, one transient worker fault that must be
/// recovered. Every topology has to agree on the outcome bytes.
CampaignOptions workerFaultScenario() {
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                           "bytecodePrim_mul", "bytecodePrim_div",
                           "primitiveAdd",     "primitiveFloatAdd"};
  Opts.Faults.Faults = {
      {HarnessFaultKind::WorkerSegfault, "bytecodePrim_add", false},
      {HarnessFaultKind::WorkerHang, "bytecodePrim_sub", false},
      {HarnessFaultKind::PipeMessageCorruption, "bytecodePrim_mul", false},
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_div", false},
      {HarnessFaultKind::WorkerSegfault, "primitiveAdd", true},
  };
  return Opts;
}

/// All seven armed harness faults, one per instruction — the four
/// stage faults, then the three worker-class ones — plus three clean
/// instructions.
CampaignOptions sevenFaultScenario() {
  CampaignOptions Opts = cleanOptions();
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
      {HarnessFaultKind::WorkerSegfault, "primitiveAdd", false},
      {HarnessFaultKind::WorkerHang, "primitiveFloatAdd", false},
      {HarnessFaultKind::PipeMessageCorruption, "primitiveFloatSubtract",
       false},
  };
  return Opts;
}

void expectScenarioOutcome(const CampaignSummary &S) {
  EXPECT_EQ(S.CompletedInstructions, 6u);
  EXPECT_FALSE(S.Stopped);

  // Exactly the sticky-faulted instructions are quarantined; the
  // transient segfault on primitiveAdd is recovered by a retry.
  std::vector<std::string> Expected = {"bytecodePrim_add", "bytecodePrim_div",
                                       "bytecodePrim_mul", "bytecodePrim_sub"};
  std::vector<std::string> Actual = S.Quarantined;
  std::sort(Actual.begin(), Actual.end());
  EXPECT_EQ(Actual, Expected);

  const InstructionRecord *Recovered = findRecord(S, "primitiveAdd");
  ASSERT_NE(Recovered, nullptr);
  EXPECT_FALSE(Recovered->Quarantined);
  EXPECT_EQ(Recovered->Attempts, 2u);

  // Sticky faults burn both attempts (2 incidents each), the transient
  // one only the first: 4 * 2 + 1.
  EXPECT_EQ(S.Incidents.size(), 9u);
  for (const CampaignIncident &I : S.Incidents) {
    EXPECT_EQ(I.Worker, -1) << I.toJson();
    EXPECT_EQ(I.Pid, 0) << I.toJson();
    if (I.Instruction == "bytecodePrim_div") {
      EXPECT_EQ(I.ErrorClass, "harness-fault");
      continue;
    }
    EXPECT_EQ(I.Stage, "worker") << I.Instruction;
    EXPECT_EQ(I.ExploreBudget, workerOutOfBandBudgetNote());
    EXPECT_EQ(I.ReplayBudget, workerOutOfBandBudgetNote());
    if (I.Instruction == "bytecodePrim_sub") {
      EXPECT_EQ(I.ErrorClass, "worker-timeout");
      EXPECT_EQ(I.Error, workerTimeoutErrorText());
    } else if (I.Instruction == "bytecodePrim_mul") {
      EXPECT_EQ(I.ErrorClass, "protocol-corruption");
      EXPECT_EQ(I.Error, protocolCorruptionErrorText());
    } else {
      EXPECT_EQ(I.ErrorClass, "worker-crash");
      EXPECT_EQ(I.Error, workerSignalErrorText(SIGSEGV));
    }
  }
}

TEST(ProcessPoolTest, WorkerFaultsAreContainedInProcess) {
  CampaignOptions Opts = workerFaultScenario();
  Opts.Jobs = 1;
  CampaignSummary S = CampaignRunner(Opts).run();
  expectScenarioOutcome(S);
}

#if IGDT_TEST_HAS_FORK

TEST(ProcessPoolTest, WorkerFaultsAreContainedOutOfProcess) {
  CampaignOptions Opts = workerFaultScenario();
  Opts.WorkerProcesses = 2;
  CampaignSummary S = CampaignRunner(Opts).run();
  expectScenarioOutcome(S);

  // Real crash containment, not the synchronous in-process path: the
  // coordinator decoded actual wait statuses and watchdog kills.
  EXPECT_GE(S.Metrics.counter("worker.processes"), 2u);
  EXPECT_GE(S.Metrics.counter("worker.crashes"), 3u);
  EXPECT_GE(S.Metrics.counter("worker.timeouts"), 2u);
  EXPECT_GE(S.Metrics.counter("worker.corrupt_frames"), 2u);
  EXPECT_EQ(S.Metrics.counter("worker.exhausted"), 3u);
}

TEST(ProcessPoolTest, RecordsAreByteIdenticalAcrossTopologies) {
  struct Topology {
    const char *Name;
    unsigned Jobs;
    unsigned WorkerProcesses;
  };
  const Topology Topologies[] = {
      {"serial", 1, 0}, {"threads4", 4, 0}, {"procs1", 1, 1}, {"procs4", 1, 4}};

  // Three worklists: the worker-fault scenario above; all seven harness
  // faults at once; and the full clean catalog under a per-instruction
  // budget of 3 explore units, where frontiers starve and each record
  // depends on where its own budget ran out.
  CampaignOptions Budgeted = cleanOptions();
  Budgeted.ExploreBudget.WorkUnits = 3;
  const struct {
    const char *Name;
    CampaignOptions Base;
    std::size_t Completed;
    std::size_t Quarantined;
  } Scenarios[] = {{"workers", workerFaultScenario(), 6, 4},
                   {"seven", sevenFaultScenario(), 10, 7},
                   {"budgeted", Budgeted, allInstructions().size(), 0}};

  for (const auto &Scenario : Scenarios) {
    std::vector<std::string> Checkpoints;
    std::vector<std::string> Incidents;
    std::vector<std::string> Traces;
    for (const Topology &T : Topologies) {
      const std::string Where = std::string(Scenario.Name) + "_" + T.Name;
      CampaignOptions Opts = Scenario.Base;
      Opts.Jobs = T.Jobs;
      Opts.WorkerProcesses = T.WorkerProcesses;
      Opts.CheckpointPath = tempPath(Where + "_ckpt.jsonl");
      Opts.IncidentLogPath = tempPath(Where + "_inc.jsonl");
      Opts.TracePath = tempPath(Where + "_trace.jsonl");
      CampaignSummary S = CampaignRunner(Opts).run();
      EXPECT_EQ(S.CompletedInstructions, Scenario.Completed) << Where;
      EXPECT_EQ(S.Quarantined.size(), Scenario.Quarantined) << Where;
      if (Where.starts_with("workers_"))
        expectScenarioOutcome(S);
      if (Scenario.Base.ExploreBudget.WorkUnits) {
        EXPECT_TRUE(std::any_of(S.Records.begin(), S.Records.end(),
                                [](const InstructionRecord &R) {
                                  return R.BudgetExhausted;
                                }))
            << Where;
      }
      Checkpoints.push_back(slurp(Opts.CheckpointPath));
      Incidents.push_back(slurp(Opts.IncidentLogPath));
      Traces.push_back(slurp(Opts.TracePath));
      std::remove(Opts.CheckpointPath.c_str());
      std::remove(Opts.IncidentLogPath.c_str());
      std::remove(Opts.TracePath.c_str());
    }
    ASSERT_FALSE(Checkpoints[0].empty()) << Scenario.Name;
    ASSERT_FALSE(Traces[0].empty()) << Scenario.Name;
    EXPECT_EQ(Incidents[0].empty(), Scenario.Quarantined == 0)
        << Scenario.Name;
    for (std::size_t I = 1; I < std::size(Topologies); ++I) {
      const std::string Where =
          std::string(Scenario.Name) + "_" + Topologies[I].Name;
      EXPECT_EQ(Checkpoints[0], Checkpoints[I]) << Where;
      EXPECT_EQ(Incidents[0], Incidents[I]) << Where;
      EXPECT_EQ(Traces[0], Traces[I]) << Where;
    }
  }
}

TEST(ProcessPoolTest, TransientWorkerFaultsRecoverOnAFreshWorker) {
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub"};
  Opts.Faults.Faults = {
      {HarnessFaultKind::WorkerSegfault, "bytecodePrim_add", true},
      {HarnessFaultKind::PipeMessageCorruption, "bytecodePrim_sub", true},
  };
  Opts.WorkerProcesses = 2;
  CampaignSummary S = CampaignRunner(Opts).run();

  EXPECT_EQ(S.CompletedInstructions, 2u);
  EXPECT_TRUE(S.Quarantined.empty());
  for (const char *Name : {"bytecodePrim_add", "bytecodePrim_sub"}) {
    const InstructionRecord *Rec = findRecord(S, Name);
    ASSERT_NE(Rec, nullptr) << Name;
    EXPECT_FALSE(Rec->Quarantined) << Name;
    EXPECT_EQ(Rec->Attempts, 2u) << Name;
  }
  // One incident per transient fault, attributed to attempt 1 and
  // marked non-quarantined.
  ASSERT_EQ(S.Incidents.size(), 2u);
  for (const CampaignIncident &I : S.Incidents) {
    EXPECT_EQ(I.Attempt, 1u);
    EXPECT_FALSE(I.Quarantined);
  }
  EXPECT_EQ(S.Metrics.counter("worker.crashes"), 1u);
  EXPECT_EQ(S.Metrics.counter("worker.corrupt_frames"), 1u);
  EXPECT_EQ(S.Metrics.counter("worker.retries"), 2u);
  EXPECT_EQ(S.Metrics.counter("worker.exhausted"), 0u);
}

TEST(ProcessPoolTest, ForkUnavailableDegradesToInProcessGracefully) {
  CampaignOptions Opts = workerFaultScenario();
  Opts.WorkerProcesses = 4;
  Opts.CheckpointPath = tempPath("nofork_ckpt.jsonl");

  ::setenv("IGDT_NO_FORK", "1", 1);
  EXPECT_FALSE(ProcessPool::available());
  CampaignSummary Degraded = CampaignRunner(Opts).run();
  ::unsetenv("IGDT_NO_FORK");

  expectScenarioOutcome(Degraded);
  EXPECT_EQ(Degraded.Metrics.counter("worker.fallback_inprocess"), 1u);
  EXPECT_EQ(Degraded.Metrics.counter("worker.processes"), 0u);

  // Same bytes as the real out-of-process run.
  CampaignOptions Real = workerFaultScenario();
  Real.WorkerProcesses = 4;
  Real.CheckpointPath = tempPath("fork_ckpt.jsonl");
  expectScenarioOutcome(CampaignRunner(Real).run());
  EXPECT_EQ(slurp(Opts.CheckpointPath), slurp(Real.CheckpointPath));
}

TEST(ProcessPoolTest, KilledCoordinatorResumesToIdenticalRecords) {
  std::vector<std::string> Names = firstNames(InstructionKind::Bytecode, 8);
  ASSERT_EQ(Names.size(), 8u);
  CampaignOptions Base = cleanOptions();
  Base.OnlyInstructions = Names;
  Base.WorkerProcesses = 2;
  const std::string Ckpt = tempPath("kill_ckpt.jsonl");

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Coordinator-under-test: checkpointed campaign, then vanish. The
    // parent SIGKILLs us mid-run; _exit keeps gtest state untouched.
    CampaignOptions Opts = Base;
    Opts.CheckpointPath = Ckpt;
    CampaignRunner(Opts).run();
    ::_exit(0);
  }

  // Wait until at least two records hit the checkpoint (proof the
  // incremental merge published them before campaign end), then kill
  // the coordinator outright. Tolerate the child finishing first.
  bool Exited = false;
  int Status = 0;
  for (int Spin = 0; Spin < 4000 && !Exited; ++Spin) {
    if (::waitpid(Child, &Status, WNOHANG) == Child) {
      Exited = true;
      break;
    }
    if (readLines(Ckpt).size() >= 2)
      break;
    ::usleep(5000);
  }
  if (!Exited) {
    ::kill(Child, SIGKILL);
    while (::waitpid(Child, &Status, 0) < 0 && errno == EINTR) {
    }
  }

  // Resume over the survivor checkpoint with the same topology.
  CampaignOptions Resume = Base;
  Resume.CheckpointPath = Ckpt;
  CampaignSummary Resumed = CampaignRunner(Resume).run();
  EXPECT_EQ(Resumed.CompletedInstructions + Resumed.ResumedInstructions,
            Names.size());

  // An uninterrupted serial reference run must agree record-for-record.
  CampaignOptions Ref = Base;
  Ref.WorkerProcesses = 0;
  Ref.Jobs = 1;
  Ref.CheckpointPath = tempPath("kill_ref_ckpt.jsonl");
  CampaignSummary Reference = CampaignRunner(Ref).run();
  EXPECT_EQ(recordLines(Resumed), recordLines(Reference));
  EXPECT_EQ(incidentLines(Resumed), incidentLines(Reference));
}

#endif // IGDT_TEST_HAS_FORK

} // namespace
