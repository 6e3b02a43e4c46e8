//===- tests/service/ResultStoreTest.cpp ---------------------------------------===//
//
// The content-addressed verdict store's contracts: key derivation is
// sensitive to exactly the inputs a record depends on (and blind to
// topology), the JSONL log survives reopen with last-entry-wins,
// tombstones invalidate per instruction and persist, gc compacts to
// the live set (or fails loudly, keeping the log), and malformed lines
// never poison a load.
//
//===----------------------------------------------------------------------===//

#include "service/ResultStore.h"

#include "evalkit/CampaignRunner.h"
#include "service/CampaignService.h"
#include "support/Json.h"
#include "vm/InstructionCatalog.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <set>

using namespace igdt;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "igdt_store_" + Name;
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

} // namespace

//===----------------------------------------------------------------------===//
// Key derivation
//===----------------------------------------------------------------------===//

TEST(ResultStoreTest, BodyHashSeparatesInstructionsAndTracksEveryByte) {
  // Distinct across the whole catalog: no two instructions may collide,
  // or an edit to one would serve stale bytes for another.
  std::set<std::uint64_t> Seen;
  for (const InstructionSpec &Spec : allInstructions())
    EXPECT_TRUE(Seen.insert(instructionBodyHash(Spec)).second) << Spec.Name;

  // Editing any body component changes the key; the name alone does not
  // carry the identity.
  const InstructionSpec *Add = findInstruction("bytecodePrim_add");
  ASSERT_NE(Add, nullptr);
  std::uint64_t Original = instructionBodyHash(*Add);

  InstructionSpec Patched = *Add;
  ASSERT_FALSE(Patched.Bytes.empty());
  Patched.Bytes[0] ^= 1;
  EXPECT_NE(instructionBodyHash(Patched), Original);

  Patched = *Add;
  Patched.NumLocals += 1;
  EXPECT_NE(instructionBodyHash(Patched), Original);

  Patched = *Add;
  Patched.PaddingBytes += 1;
  EXPECT_NE(instructionBodyHash(Patched), Original);

  // An untouched copy keys identically: the hash is a pure function of
  // the body, not of object identity.
  EXPECT_EQ(instructionBodyHash(InstructionSpec(*Add)), Original);
}

TEST(ResultStoreTest, ConfigFingerprintIgnoresTopologyButNotSemantics) {
  CampaignOptions Base;
  std::uint64_t Baseline = campaignConfigFingerprint(Base);

  // Jobs is excluded by design: records are proven byte-identical at
  // any value, so a record computed at one may serve any other.
  CampaignOptions Topo = Base;
  Topo.Jobs = 8;
  EXPECT_EQ(campaignConfigFingerprint(Topo), Baseline);

  // The code identity is keyed: another build's records never serve.
  EXPECT_EQ(campaignConfigFingerprint(Base, codeIdentity()), Baseline);
  EXPECT_NE(campaignConfigFingerprint(Base, codeIdentity() + 1), Baseline);

  // The execution engine is excluded for the same reason: all three
  // tiers are proven byte-identical, so a record computed on one engine
  // may serve a campaign running another.
  for (SimEngine E :
       {SimEngine::Switch, SimEngine::Threaded, SimEngine::Native}) {
    CampaignOptions Tier = Base;
    Tier.Harness.Sim.Engine = E;
    EXPECT_EQ(campaignConfigFingerprint(Tier), Baseline)
        << simEngineName(E);
  }

  // But the miscompile probe and the cross-engine oracle change which
  // defects a record reports, so both are keyed.
  CampaignOptions Probe = Base;
  Probe.Harness.Sim.NativeMiscompileProbe = true;
  EXPECT_NE(campaignConfigFingerprint(Probe), Baseline);

  CampaignOptions Check = Base;
  Check.Harness.CrossEngineCheck = true;
  EXPECT_NE(campaignConfigFingerprint(Check), Baseline);

  // Record-shaping knobs are not.
  CampaignOptions Semantic = Base;
  Semantic.MaxAttempts = 3;
  EXPECT_NE(campaignConfigFingerprint(Semantic), Baseline);

  Semantic = Base;
  Semantic.Harness.SeedSimulationErrors = !Semantic.Harness.SeedSimulationErrors;
  EXPECT_NE(campaignConfigFingerprint(Semantic), Baseline);

  // Wall budgets are keyed too: a record a clock cut short must never
  // resume into (or be served to) a campaign without that clock.
  CampaignOptions Wall = Base;
  Wall.ExploreBudget.WallMillis = 50;
  EXPECT_NE(campaignConfigFingerprint(Wall), Baseline);
  Wall = Base;
  Wall.ReplayBudget.WallMillis = 50;
  EXPECT_NE(campaignConfigFingerprint(Wall), Baseline);
  Wall = Base;
  Wall.CampaignWallMillis = 1000;
  EXPECT_NE(campaignConfigFingerprint(Wall), Baseline);

  // What selects the worklist, and where records are written, shapes no
  // record: a checkpoint resumes across them.
  CampaignOptions Selection = Base;
  Selection.StopAfter = 3;
  Selection.OnlyInstructions = {"bytecodePrim_add"};
  Selection.CheckpointPath = "elsewhere.jsonl";
  EXPECT_EQ(campaignConfigFingerprint(Selection), Baseline);

  // The full content address mixes body and config: same instruction
  // under a different fingerprint is a different key, and vice versa.
  const InstructionSpec *Add = findInstruction("bytecodePrim_add");
  const InstructionSpec *Sub = findInstruction("bytecodePrim_sub");
  ASSERT_NE(Add, nullptr);
  ASSERT_NE(Sub, nullptr);
  std::uint64_t FpA = campaignConfigFingerprint(Base);
  std::uint64_t FpB = campaignConfigFingerprint(Semantic);
  EXPECT_NE(resultStoreKey(*Add, FpA), resultStoreKey(*Sub, FpA));
  EXPECT_NE(resultStoreKey(*Add, FpA), resultStoreKey(*Add, FpB));
  EXPECT_EQ(resultStoreKey(*Add, FpA), resultStoreKey(*Add, FpA));
}

TEST(ResultStoreTest, VersionOneEntriesAreNotServed) {
  // The key a version-1 binary derived for bytecodePrim_add under these
  // options. Version 2 removed the solver model bank, which changed the
  // defined exploration algorithm, so such an entry must miss and the
  // instruction must be explored afresh rather than served.
  constexpr std::uint64_t VersionOneKey = 0xd725fd8a69d38997ull;
  CampaignOptions Opts;
  Opts.RecordTimings = false;
  Opts.OnlyInstructions = {"bytecodePrim_add"};
  const InstructionSpec *Add = findInstruction("bytecodePrim_add");
  ASSERT_NE(Add, nullptr);
  EXPECT_NE(resultStoreKey(*Add, campaignConfigFingerprint(Opts)),
            VersionOneKey);

  // Plant a well-formed record under the old key, tagged so that
  // serving it would be visible.
  CampaignSummary Fresh = CampaignRunner(Opts).run();
  ASSERT_EQ(Fresh.Records.size(), 1u);
  InstructionRecord Planted = Fresh.Records[0];
  Planted.Paths = 999;
  ResultStore Store(""); // in memory
  Store.put(VersionOneKey, Planted.Instruction, Planted.toJson());

  Opts.Store = &Store;
  CampaignSummary Run = CampaignRunner(Opts).run();
  EXPECT_EQ(Run.StoreServed, 0u);
  EXPECT_EQ(Run.StoreMisses, 1u);
  ASSERT_EQ(Run.Records.size(), 1u);
  EXPECT_EQ(Run.Records[0].toJson(), Fresh.Records[0].toJson());
}

TEST(ResultStoreTest, VersionThreeCheckpointLinesReRunAsStale) {
  // The key a version-3 binary derived for bytecodePrim_add under these
  // options. Version 4 dropped the campaign ledger, budget pool and
  // persisted yield from the fingerprint, so a checkpoint line under the
  // old key re-runs, counted stale, rather than resuming.
  constexpr std::uint64_t VersionThreeKey = 0xfaeaa0ca1687d010ull;
  CampaignOptions Opts;
  Opts.RecordTimings = false;
  Opts.OnlyInstructions = {"bytecodePrim_add"};
  const InstructionSpec *Add = findInstruction("bytecodePrim_add");
  ASSERT_NE(Add, nullptr);
  EXPECT_NE(resultStoreKey(*Add, campaignConfigFingerprint(Opts)),
            VersionThreeKey);

  // Plant a well-formed record under the old key, tagged so that
  // resuming it would be visible.
  CampaignSummary Fresh = CampaignRunner(Opts).run();
  ASSERT_EQ(Fresh.Records.size(), 1u);
  InstructionRecord Planted = Fresh.Records[0];
  Planted.Paths = 999;
  Opts.CheckpointPath = tempPath("version_three.jsonl");
  {
    std::ofstream Out(Opts.CheckpointPath);
    Out << keyedRecordLine(VersionThreeKey, Planted.toJson()) << "\n";
  }

  CampaignSummary Run = CampaignRunner(Opts).run();
  EXPECT_EQ(Run.ResumedInstructions, 0u);
  EXPECT_EQ(Run.Metrics.counter("campaign.resume_stale"), 1u);
  ASSERT_EQ(Run.Records.size(), 1u);
  EXPECT_EQ(Run.Records[0].toJson(), Fresh.Records[0].toJson());
  std::remove(Opts.CheckpointPath.c_str());
}

TEST(ResultStoreTest, StoreEligibilityRefusesTimingDependentConfigs) {
  CampaignOptions Opts;
  EXPECT_TRUE(storeEligible(Opts));

  // Work-unit budgets are deterministic and allowed.
  Opts.ExploreBudget.WorkUnits = 1000;
  Opts.ReplayBudget.WorkUnits = 1000;
  EXPECT_TRUE(storeEligible(Opts));

  CampaignOptions Wall;
  Wall.CampaignWallMillis = 1000;
  EXPECT_FALSE(storeEligible(Wall));

  Wall = CampaignOptions();
  Wall.ExploreBudget.WallMillis = 50;
  EXPECT_FALSE(storeEligible(Wall));

  Wall = CampaignOptions();
  Wall.ReplayBudget.WallMillis = 50;
  EXPECT_FALSE(storeEligible(Wall));
}

//===----------------------------------------------------------------------===//
// The JSONL log
//===----------------------------------------------------------------------===//

TEST(ResultStoreTest, PersistsAcrossReopenWithLastEntryWinning) {
  std::string Path = tempPath("reopen.jsonl");
  {
    ResultStore Store(Path);
    EXPECT_EQ(Store.size(), 0u);
    Store.put(1, "bytecodePrim_add", "{\"r\":\"first\"}");
    Store.put(2, "bytecodePrim_sub", "{\"r\":\"other\"}");
    auto LogBytes = std::filesystem::file_size(Path);
    // Identical re-store is skipped (no log growth)...
    Store.put(1, "bytecodePrim_add", "{\"r\":\"first\"}");
    EXPECT_EQ(std::filesystem::file_size(Path), LogBytes);
    // ...a changed record is an overwrite, last entry wins.
    Store.put(1, "bytecodePrim_add", "{\"r\":\"second\"}");
    EXPECT_GT(std::filesystem::file_size(Path), LogBytes);
    EXPECT_EQ(Store.size(), 2u);
  }
  {
    ResultStore Store(Path);
    EXPECT_EQ(Store.size(), 2u);
    std::string Line;
    ASSERT_TRUE(Store.lookup(1, Line));
    EXPECT_EQ(Line, "{\"r\":\"second\"}");
    ASSERT_TRUE(Store.lookup(2, Line));
    EXPECT_EQ(Line, "{\"r\":\"other\"}");
    EXPECT_FALSE(Store.lookup(3, Line));
    EXPECT_EQ(Line, "{\"r\":\"other\"}"); // a miss leaves the output alone
  }
  std::remove(Path.c_str());
}

TEST(ResultStoreTest, InvalidateIsPerInstructionAndPersists) {
  std::string Path = tempPath("invalidate.jsonl");
  {
    ResultStore Store(Path);
    Store.put(1, "bytecodePrim_add", "{\"r\":\"a\"}");
    Store.put(2, "bytecodePrim_add", "{\"r\":\"b\"}");
    Store.put(3, "bytecodePrim_sub", "{\"r\":\"c\"}");
    // Both entries of the named instruction go; the other survives.
    EXPECT_EQ(Store.invalidate("bytecodePrim_add"), 2u);
    EXPECT_EQ(Store.size(), 1u);
    EXPECT_EQ(Store.invalidate("noSuchInstruction"), 0u);
  }
  {
    // Tombstones are log entries, so the invalidation survives reopen.
    ResultStore Store(Path);
    EXPECT_EQ(Store.size(), 1u);
    std::string Line;
    EXPECT_FALSE(Store.lookup(1, Line));
    EXPECT_FALSE(Store.lookup(2, Line));
    ASSERT_TRUE(Store.lookup(3, Line));
    EXPECT_EQ(Line, "{\"r\":\"c\"}");

    // A put after a tombstone resurrects the key (the re-explored
    // record re-enters the cache), and "" invalidates everything.
    Store.put(1, "bytecodePrim_add", "{\"r\":\"a2\"}");
    ASSERT_TRUE(Store.lookup(1, Line));
    EXPECT_EQ(Line, "{\"r\":\"a2\"}");
    EXPECT_EQ(Store.invalidate(""), 2u);
    EXPECT_EQ(Store.size(), 0u);
  }
  std::remove(Path.c_str());
}

TEST(ResultStoreTest, GcCompactsTheLogToExactlyTheLiveEntries) {
  std::string Path = tempPath("gc.jsonl");
  ResultStore Store(Path);
  Store.put(1, "bytecodePrim_add", "{\"r\":\"a\"}");
  Store.put(1, "bytecodePrim_add", "{\"r\":\"a2\"}"); // superseded put
  Store.put(2, "bytecodePrim_sub", "{\"r\":\"b\"}");
  Store.put(3, "bytecodePrim_mul", "{\"r\":\"c\"}");
  Store.invalidate("bytecodePrim_mul"); // put + tombstone, both dead
  ASSERT_EQ(readLines(Path).size(), 5u);

  ResultStore::GcStats Stats = Store.gc();
  EXPECT_EQ(Stats.Kept, 2u);
  EXPECT_EQ(Stats.Dropped, 3u);
  EXPECT_EQ(readLines(Path).size(), 2u);

  // The compacted log reloads to the same live set, bytes intact.
  ResultStore Reloaded(Path);
  EXPECT_EQ(Reloaded.size(), 2u);
  std::string Line;
  ASSERT_TRUE(Reloaded.lookup(1, Line));
  EXPECT_EQ(Line, "{\"r\":\"a2\"}");

  // A second gc with nothing dead is a no-op compaction.
  Stats = Reloaded.gc();
  EXPECT_EQ(Stats.Kept, 2u);
  EXPECT_EQ(Stats.Dropped, 0u);
  std::remove(Path.c_str());
}

TEST(ResultStoreTest, FailedGcKeepsTheLogAndTheDaemonSaysSo) {
  std::string Path = tempPath("gc_fail.jsonl");
  std::string Tmp = Path + ".gc";
  std::filesystem::remove_all(Tmp);
  {
    ResultStore Store(Path);
    Store.put(1, "bytecodePrim_add", "{\"r\":\"a\"}");
    Store.put(1, "bytecodePrim_add", "{\"r\":\"a2\"}"); // superseded put
    Store.put(2, "bytecodePrim_sub", "{\"r\":\"b\"}");
    Store.invalidate("bytecodePrim_sub"); // put + tombstone, both dead
  }
  ASSERT_EQ(readLines(Path).size(), 4u);

  // The compaction's temp file cannot be written: gc must fail loudly
  // and leave the log, and what it would drop, as they were.
  std::filesystem::create_directory(Tmp);
  CampaignService Service;
  ServiceRequest Gc;
  Gc.Verb = "gc";
  Gc.StorePath = Path;
  ServiceReply Failed = Service.handle(Gc);
  EXPECT_FALSE(Failed.Ok);
  EXPECT_FALSE(Failed.Error.empty());
  EXPECT_EQ(readLines(Path).size(), 4u);

  std::filesystem::remove_all(Tmp);
  ServiceReply Done = Service.handle(Gc);
  ASSERT_TRUE(Done.Ok) << Done.Error;
  std::optional<JsonValue> Body = JsonValue::parse(Done.Body);
  ASSERT_TRUE(Body.has_value());
  EXPECT_EQ(Body->numberOr("kept", -1), 1);
  EXPECT_EQ(Body->numberOr("dropped", -1), 3);
  EXPECT_EQ(readLines(Path).size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(Tmp));

  // After the rename the store appends to the new log, not the old one.
  {
    ResultStore Store(Path);
    ResultStore::GcStats Stats = Store.gc();
    EXPECT_EQ(Stats.Kept, 1u);
    Store.put(3, "bytecodePrim_mul", "{\"r\":\"c\"}");
  }
  ResultStore Reloaded(Path);
  EXPECT_EQ(Reloaded.size(), 2u);
  std::remove(Path.c_str());
}

TEST(ResultStoreTest, MalformedLinesAreSkippedNotFatal) {
  std::string Path = tempPath("corrupt.jsonl");
  {
    ResultStore Store(Path);
    Store.put(7, "bytecodePrim_add", "{\"r\":\"keep\"}");
  }
  {
    // A torn final line and assorted garbage, as a crash would leave.
    std::ofstream Out(Path, std::ios::app);
    Out << "not json at all\n"
        << "{\"v\":1,\"key\":\"zzzz\",\"record\":\"bad key\"}\n"
        << "{\"v\":1,\"key\":\"0000000000000008\",\"instruction\":\"x\",\"rec";
  }
  ResultStore Store(Path);
  EXPECT_EQ(Store.size(), 1u);
  std::string Line;
  ASSERT_TRUE(Store.lookup(7, Line));
  EXPECT_EQ(Line, "{\"r\":\"keep\"}");
  // The store keeps appending past the garbage; the new entry loads.
  Store.put(8, "bytecodePrim_sub", "{\"r\":\"new\"}");
  ResultStore Reloaded(Path);
  EXPECT_EQ(Reloaded.size(), 2u);
  std::remove(Path.c_str());
}
