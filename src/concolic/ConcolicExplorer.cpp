//===- concolic/ConcolicExplorer.cpp - Interpreter path exploration ----------===//

#include "concolic/ConcolicExplorer.h"

#include "observe/TraceBus.h"
#include "solver/TermEval.h"
#include "support/StringUtils.h"
#include "symbolic/ConcolicDomain.h"
#include "symbolic/FrameMaterializer.h"
#include "vm/InterpreterCore.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>

using namespace igdt;

namespace {

FrameSnapshot snapshotFrame(const FrameT<ConcolicValue> &F) {
  FrameSnapshot S;
  S.Receiver = F.Receiver;
  S.Locals = F.Locals;
  S.Stack = F.Stack;
  S.PC = F.PC;
  return S;
}

/// True if \p T (an int term) contains a materialisation-dependent leaf,
/// which the model-based verifier cannot evaluate.
bool intTermIsOpaque(const IntTerm *T) {
  if (!T)
    return false;
  if (T->TermKind == IntTerm::Kind::UncheckedValueOf ||
      T->TermKind == IntTerm::Kind::IdentityHash)
    return true;
  if (T->FloatOperand &&
      T->FloatOperand->TermKind == FloatTerm::Kind::UncheckedValueOf)
    return true;
  return intTermIsOpaque(T->Lhs) || intTermIsOpaque(T->Rhs);
}

bool boolTermIsOpaque(const BoolTerm *T) {
  switch (T->TermKind) {
  case BoolTerm::Kind::Not:
    return boolTermIsOpaque(T->BLhs);
  case BoolTerm::Kind::And:
  case BoolTerm::Kind::Or:
    return boolTermIsOpaque(T->BLhs) || boolTermIsOpaque(T->BRhs);
  case BoolTerm::Kind::ICmp:
    return intTermIsOpaque(T->ILhs) || intTermIsOpaque(T->IRhs);
  default:
    return false;
  }
}

/// Rung \p Level of the degradation ladder: the same query with the
/// branching caps (cases, class combos, random samples) cut to a
/// quarter per rung, trading model coverage for the ability to answer
/// at all. Floors keep the cheapest rung meaningful; the min() keeps a
/// rung from exceeding an already-small base configuration. The node
/// cap is the one knob a rung may *raise*: it is floored at a small
/// constant so the narrowed tree can be visited at least once even
/// when the base search was node-starved — with the branching caps
/// cut, that floor still bounds the rung far below the cost of a
/// full-width search.
SolverOptions ladderRung(const SolverOptions &Base, unsigned Level) {
  SolverOptions Rung = Base;
  unsigned Shift = 2 * Level;
  auto Cut = [Shift](unsigned Value, unsigned Floor) {
    return std::min(Value, std::max(Floor, Value >> Shift));
  };
  Rung.MaxCases = Cut(Base.MaxCases, 4);
  Rung.MaxClassCombos = Cut(Base.MaxClassCombos, 8);
  Rung.RandomSamples = Cut(Base.RandomSamples, 1);
  Rung.MaxSearchNodes = std::max<unsigned>(Base.MaxSearchNodes, 256);
  return Rung;
}

} // namespace

ExplorationResult ConcolicExplorer::explore(const InstructionSpec &Spec) {
  ExplorationResult Seed;
  Seed.Spec = &Spec;
  Seed.Method = std::make_unique<CompiledMethod>(instantiateMethod(Spec));
  return run(std::move(Seed));
}

ExplorationResult ConcolicExplorer::exploreMethod(const CompiledMethod &M,
                                                  const std::string &Name) {
  ExplorationResult Seed;
  Seed.OwnedSpec = std::make_unique<InstructionSpec>();
  Seed.OwnedSpec->Kind = InstructionKind::Bytecode;
  Seed.OwnedSpec->Name = Name;
  Seed.OwnedSpec->Family = "sequence";
  Seed.OwnedSpec->Bytes = M.Bytecodes;
  Seed.OwnedSpec->NumLocals = M.NumTemps;
  Seed.OwnedSpec->Literals = M.Literals;
  Seed.Spec = Seed.OwnedSpec.get();
  Seed.IsSequence = true;
  Seed.Method = std::make_unique<CompiledMethod>(M);
  return run(std::move(Seed));
}

ExplorationResult ConcolicExplorer::run(ExplorationResult Seed) {
  ExplorationResult Result = std::move(Seed);
  Result.Builder = std::make_unique<TermBuilder>();
  // A quarter-megabyte heap comfortably fits every materialisation of an
  // exploration (objects are bounded by MaxObjectSlots). It is not
  // zero-filled, so set-up touches only the pages allocation writes.
  Result.Memory = std::make_unique<ObjectMemory>(256 * 1024);

  if (Opts.InjectHeapCorruption)
    Result.Memory->poison("injected corruption before exploration");

  Budget Unlimited;
  Budget &Bud = Opts.ExternalBudget ? *Opts.ExternalBudget : Unlimited;

  auto ExploreStart = std::chrono::steady_clock::now();

  SolverOptions PrimaryOpts = Opts.Solver;
  PrimaryOpts.SharedBudget = &Bud;
  // Ladder rungs copy PrimaryOpts, so they inherit the sink too.
  PrimaryOpts.Trace = Opts.Trace;
  // Mix a stable hash of the instruction name into the seed so each
  // instruction's exploration is a pure function of (name, base seed) —
  // independent of catalog position or worker assignment (see the
  // ownership comment in ConcolicExplorer.h).
  PrimaryOpts.Seed =
      hashCombine64(Opts.Solver.Seed, stableHash64(Result.Spec->Name));
  // Ladder rungs copy PrimaryOpts, so they share the index too (an
  // Unsat proof is keyed by the caps that produced it).
  PrimaryOpts.Shared = Opts.SharedUnsat;
  ConstraintSolver Solver(Result.Memory->classTable(), PrimaryOpts);
  SolverStats LadderStats;
  FrameMaterializer Materializer(*Result.Memory, *Result.Builder);
  TermBuilder &B = *Result.Builder;

  struct Pending {
    Model M;
    std::size_t Depth;
  };
  std::deque<Pending> Queue;
  Queue.push_back({Model{}, 0});
  std::set<PathSignature> Seen;

  while (!Queue.empty() && Result.Iterations < Opts.MaxIterations &&
         Result.Paths.size() < Opts.MaxPaths) {
    // One work unit per concolic execution, so an expired budget stops
    // the frontier between solver calls; the paths retained so far stay
    // valid.
    if (!Bud.charge()) {
      Result.BudgetExhausted = true;
      break;
    }

    Pending Item = std::move(Queue.front());
    Queue.pop_front();
    ++Result.Iterations;

    // One concolic execution (a column of the paper's Figure 2).
    PathRecorder Recorder;
    ConcolicDomain Domain(*Result.Memory, Cfg, B, Recorder);
    InterpreterCore<ConcolicDomain> Interp(Domain, *Result.Memory);
    MaterializedFrame MF = Materializer.materialize(Item.M, *Result.Method);
    Domain.InputStackDepth = MF.StackDepth;
    FrameT<ConcolicValue> Frame = std::move(MF.Concolic);
    FrameSnapshot InputSnapshot = snapshotFrame(Frame);

    StepResult<ConcolicValue> Step = Result.IsSequence
                                         ? Interp.runFragment(Frame)
                                         : Interp.stepInstruction(Frame);

    const std::vector<PathEntry> &Entries = Recorder.entries();
    // A path seen before interned all of its negations then, so building
    // the conjunction here interns terms only for a new path, in the
    // order the negation loop below would.
    std::vector<const BoolTerm *> Conjunction = Recorder.conjunction(B);
    if (Seen.insert(Recorder.signature()).second) {
      PathSolution Sol;
      Sol.Constraints = Conjunction;
      Sol.Entries = Entries;
      Sol.Exit = Step.Kind;
      Sol.Selector = Step.Selector;
      Sol.SendNumArgs = Step.SendNumArgs;
      Sol.Result = Step.Result;
      Sol.InputModel = std::move(Item.M);
      Sol.Input = std::move(InputSnapshot);
      Sol.Output = snapshotFrame(Frame);
      Sol.SlotStores = std::move(Domain.SlotStores);
      Sol.ByteStores = std::move(Domain.ByteStores);
      Sol.Allocations = std::move(Domain.Allocations);

      // Curation (paper §5.2): keep only paths the prototype supports.
      if (MF.StackDepth > Opts.MaxReplayStackDepth) {
        Sol.Curated = false;
        Sol.CurationNote = "operand stack deeper than the replay harness "
                           "frame area";
      } else {
        // Re-verify the path condition under its own model; paths with
        // materialisation-dependent constraints cannot be verified.
        TermEvaluator Eval(Sol.InputModel, Result.Memory->classTable());
        for (const BoolTerm *C : Sol.Constraints) {
          if (boolTermIsOpaque(C)) {
            Sol.Curated = false;
            Sol.CurationNote =
                "path condition depends on raw memory contents";
            break;
          }
          auto V = Eval.evalBool(C);
          if (!V || !*V) {
            Sol.Curated = false;
            Sol.CurationNote = "model does not verify against the recorded "
                               "path condition";
            break;
          }
        }
      }
      if (Opts.Trace) {
        TraceEvent E;
        E.Kind = TraceEventKind::PathExplored;
        E.Detail = exitKindName(Sol.Exit);
        E.Value = Result.Paths.size();
        E.Extra = Sol.Curated ? 1 : 0;
        Opts.Trace->emit(std::move(E));
      }
      Result.Paths.push_back(std::move(Sol));
    }

    // Generational negation: flip each not-yet-negated branch after the
    // inherited prefix depth. An Unknown answer runs the degradation
    // ladder before the negation is filed: retry with progressively
    // cheaper solver configurations. A small cap often answers a query
    // whose full-size search space blew the node budget, at the price
    // of missing some models.
    std::vector<const BoolTerm *> Prefix;
    for (std::size_t I = Item.Depth; I < Entries.size(); ++I) {
      if (!Entries[I].Negatable)
        continue;
      Prefix.assign(Conjunction.begin(), Conjunction.begin() + I);
      Prefix.push_back(Entries[I].Taken ? B.notB(Entries[I].Condition)
                                        : Entries[I].Condition);
      SolveResult SR = Solver.solve(Prefix);
      for (unsigned Rung = 1;
           SR.Status == SolveStatus::Unknown && Rung <= Opts.LadderRungs &&
           !Bud.expired();
           ++Rung) {
        ++Result.LadderRetries;
        SolverOptions RungOpts = ladderRung(PrimaryOpts, Rung);
        RungOpts.SharedBudget = &Bud;
        ConstraintSolver Cheap(Result.Memory->classTable(), RungOpts);
        SR = Cheap.solve(Prefix);
        LadderStats.add(Cheap.stats());
        if (SR.Status != SolveStatus::Unknown)
          ++Result.LadderRescues;
        if (Opts.Trace) {
          TraceEvent E;
          E.Kind = TraceEventKind::LadderRung;
          E.Detail = solveStatusName(SR.Status);
          E.Value = Rung;
          Opts.Trace->emit(std::move(E));
        }
      }

      if (SR.Status == SolveStatus::Sat)
        Queue.push_back({std::move(SR.M), I + 1});
      else if (SR.Status == SolveStatus::Unknown)
        ++Result.UnknownNegations;
      else
        ++Result.UnsatNegations;
    }
  }

  Result.Solver = Solver.stats();
  Result.Solver.add(LadderStats);
  if (Bud.expired())
    Result.BudgetExhausted = true;
  // Provable exhaustion: the loop drained its frontier (not an
  // iteration/path cap with work still queued), nothing was cut short
  // by budget, and every negation got a definite answer.
  Result.FrontierExhausted =
      Queue.empty() && !Result.BudgetExhausted && Result.UnknownNegations == 0;
  if (Opts.Trace) {
    // TraceScope zeroes Millis when the campaign runs untimed, so this
    // span never breaks trace byte-identity.
    TraceEvent E;
    E.Kind = TraceEventKind::ExploreDone;
    E.Detail = Result.BudgetExhausted ? "budget-exhausted" : "complete";
    E.Value = Result.Paths.size();
    E.Extra = Result.Iterations;
    E.Millis = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - ExploreStart)
                   .count();
    Opts.Trace->emit(std::move(E));
  }
  return Result;
}
