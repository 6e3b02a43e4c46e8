//===- evalkit/Experiments.cpp - Paper tables and figures ------------------------===//

#include "evalkit/Experiments.h"

#include "solver/TermPrinter.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

using namespace igdt;

namespace {

/// \p Field of every non-quarantined record of \p Kind, in record
/// order.
template <typename T>
std::vector<double> recordSamples(const std::vector<InstructionRecord> &Records,
                                  InstructionKind Kind,
                                  T InstructionRecord::*Field) {
  std::vector<double> Out;
  for (const InstructionRecord &Rec : Records)
    if (!Rec.Quarantined && Rec.Kind == Kind)
      Out.push_back(static_cast<double>(Rec.*Field));
  return Out;
}

} // namespace

std::string igdt::renderTable1(const ExplorationResult &R) {
  TablePrinter T({"Argument 0 (top)", "Argument 1", "Exit", "Path"});
  for (const PathSolution &P : R.Paths) {
    std::string Arg0 = P.Input.Stack.size() > 1
                           ? R.Memory->describe(P.Input.Stack[1].C)
                           : "-";
    std::string Arg1 = !P.Input.Stack.empty()
                           ? R.Memory->describe(P.Input.Stack[0].C)
                           : "-";
    std::vector<std::string> Conds;
    for (const BoolTerm *C : P.Constraints)
      Conds.push_back(printBoolTerm(C));
    T.addRow({Arg1, Arg0, exitKindName(P.Exit),
              joinStrings(Conds, ", ")});
  }
  return "Table 1: concolic execution paths of bytecodePrimAdd\n" +
         T.render();
}

std::string igdt::renderFigure2Trace(const ExplorationResult &R) {
  std::string Out =
      "Figure 2: constraint tracking across concolic executions of the "
      "add byte-code\n\n";
  unsigned Col = 1;
  for (const PathSolution &P : R.Paths) {
    Out += formatString("== Concolic Execution #%u ==\n", Col++);
    Out += "input operand stack:";
    if (P.Input.Stack.empty())
      Out += " (empty)";
    for (const ConcolicValue &V : P.Input.Stack) {
      Out += ' ';
      Out += R.Memory->describe(V.C);
    }
    Out += formatString("\nexit: %s\n", exitKindName(P.Exit));
    Out += "recorded constraint path:\n";
    for (const BoolTerm *C : P.Constraints)
      Out += "  " + printBoolTerm(C) + "\n";
    Out += "output operand stack:";
    if (P.Output.Stack.empty())
      Out += " (empty)";
    for (const ConcolicValue &V : P.Output.Stack) {
      Out += ' ';
      Out += printObjTerm(V.S);
    }
    Out += "\n\n";
  }
  return Out;
}

std::string igdt::renderTable2(const std::vector<CompilerEvaluation> &Rows) {
  TablePrinter T({"Compiler", "# Tested Instructions", "# Interpreter Paths",
                  "# Curated Paths", "# Differences (%)"});
  unsigned TotalInstr = 0;
  unsigned TotalPaths = 0;
  unsigned TotalCurated = 0;
  unsigned TotalDiffs = 0;
  for (const CompilerEvaluation &Row : Rows) {
    double Pct = Row.CuratedPaths
                     ? double(Row.DifferingPaths) / Row.CuratedPaths
                     : 0;
    T.addRow({compilerKindName(Row.Kind),
              formatString("%u", Row.TestedInstructions),
              formatString("%u", Row.InterpreterPaths),
              formatString("%u", Row.CuratedPaths),
              formatString("%u (%s)", Row.DifferingPaths,
                           formatPercent(Pct).c_str())});
    TotalInstr += Row.TestedInstructions;
    TotalPaths += Row.InterpreterPaths;
    TotalCurated += Row.CuratedPaths;
    TotalDiffs += Row.DifferingPaths;
  }
  double TotalPct = TotalCurated ? double(TotalDiffs) / TotalCurated : 0;
  T.addRow({"Total", formatString("%u", TotalInstr),
            formatString("%u", TotalPaths), formatString("%u", TotalCurated),
            formatString("%u (%s)", TotalDiffs,
                         formatPercent(TotalPct).c_str())});
  return "Table 2: results of running the approach on four compilers\n" +
         T.render();
}

std::string igdt::renderTable3(const std::vector<CompilerEvaluation> &Rows) {
  // Deduplicate causes across compilers and count per family.
  std::map<std::string, DefectFamily> AllCauses;
  for (const CompilerEvaluation &Row : Rows)
    for (const auto &[Key, Family] : Row.Causes)
      AllCauses.emplace(Key, Family);

  std::map<DefectFamily, unsigned> PerFamily;
  for (const auto &[Key, Family] : AllCauses)
    ++PerFamily[Family];

  TablePrinter T({"Family", "# Cases"});
  unsigned Total = 0;
  static const DefectFamily Order[] = {
      DefectFamily::MissingInterpreterTypeCheck,
      DefectFamily::MissingCompiledTypeCheck,
      DefectFamily::OptimisationDifference,
      DefectFamily::BehaviouralDifference,
      DefectFamily::MissingFunctionality,
      DefectFamily::SimulationError,
  };
  for (DefectFamily F : Order) {
    unsigned N = PerFamily.count(F) ? PerFamily[F] : 0;
    T.addRow({defectFamilyName(F), formatString("%u", N)});
    Total += N;
  }
  T.addRow({"Total", formatString("%u", Total)});
  return "Table 3: summary of found defects (causes, deduplicated)\n" +
         T.render();
}

std::string
igdt::renderFigure5(const std::vector<InstructionRecord> &Records) {
  std::vector<double> BC = recordSamples(Records, InstructionKind::Bytecode,
                                         &InstructionRecord::Paths);
  std::vector<double> NM = recordSamples(
      Records, InstructionKind::NativeMethod, &InstructionRecord::Paths);
  std::string Out = "Figure 5: paths per instruction (log scale)\n\n";
  Out += "Byte-codes:      " + describeStats(computeStats(BC), "") + "\n";
  Out += renderHistogram(BC, 6, "paths");
  Out += "\nNative methods:  " + describeStats(computeStats(NM), "") + "\n";
  Out += renderHistogram(NM, 6, "paths");
  return Out;
}

std::string
igdt::renderFigure6(const std::vector<InstructionRecord> &Records) {
  std::vector<double> BC = recordSamples(Records, InstructionKind::Bytecode,
                                         &InstructionRecord::ExploreMillis);
  std::vector<double> NM =
      recordSamples(Records, InstructionKind::NativeMethod,
                    &InstructionRecord::ExploreMillis);
  std::string Out =
      "Figure 6: concolic execution time per kind of instruction\n\n";
  Out += "Byte-codes:      " + describeStats(computeStats(BC), "ms") + "\n";
  Out += "Native methods:  " + describeStats(computeStats(NM), "ms") + "\n";
  Out += renderHistogram(NM, 6, "ms");
  return Out;
}

std::string
igdt::renderFigure7(const std::vector<CompilerEvaluation> &Rows) {
  std::string Out =
      "Figure 7: differential test execution time per compiler\n\n";
  for (const CompilerEvaluation &Row : Rows) {
    SampleStats Stats = computeStats(Row.TestMillisPerInstruction);
    Out += formatString("%-35s %s\n", compilerKindName(Row.Kind),
                        describeStats(Stats, "ms").c_str());
  }
  return Out;
}
