//===- evalkit/TestExport.cpp - Rendering paths as unit tests ---------------------===//

#include "evalkit/TestExport.h"

#include "solver/TermPrinter.h"
#include "support/StringUtils.h"

using namespace igdt;

namespace {

bool pathIsReplayable(const InstructionSpec &Spec, const PathSolution &P) {
  if (!P.Curated)
    return false;
  if (P.Exit == ExitKind::InvalidFrame)
    return false;
  if (P.Exit == ExitKind::InvalidMemoryAccess &&
      Spec.Kind == InstructionKind::Bytecode)
    return false;
  return true;
}

} // namespace

std::string igdt::renderPathAsTest(const ExplorationResult &R,
                                   std::size_t PathIdx) {
  const PathSolution &P = R.Paths[PathIdx];
  const InstructionSpec &Spec = *R.Spec;
  std::string Out;

  Out += formatString("test \"%s path %zu\"\n", Spec.Name.c_str(), PathIdx);

  Out += "  given:\n";
  Out += formatString("    receiver = %s\n",
                      R.Memory->describe(P.Input.Receiver.C).c_str());
  for (std::size_t I = 0; I < P.Input.Locals.size(); ++I)
    Out += formatString("    local%zu   = %s\n", I,
                        R.Memory->describe(P.Input.Locals[I].C).c_str());
  if (P.Input.Stack.empty()) {
    Out += "    operand stack = (empty)\n";
  } else {
    Out += "    operand stack (bottom to top) =";
    for (const ConcolicValue &V : P.Input.Stack) {
      Out += ' ';
      Out += R.Memory->describe(V.C);
    }
    Out += "\n";
  }

  Out += "  covering path:\n";
  if (P.Constraints.empty())
    Out += "    (unconditional)\n";
  for (const BoolTerm *C : P.Constraints)
    Out += "    " + printBoolTerm(C) + "\n";

  Out += "  expect:\n";
  Out += formatString("    exit = %s", exitKindName(P.Exit));
  if (P.Exit == ExitKind::MessageSend)
    Out += formatString(" (selector #%u, %u args)", P.Selector,
                        P.SendNumArgs);
  Out += "\n";
  if ((P.Exit == ExitKind::MethodReturn || P.Exit == ExitKind::Success) &&
      P.Result.S)
    Out += formatString("    result = %s\n",
                        printObjTerm(P.Result.S).c_str());
  if (P.Exit == ExitKind::Success &&
      Spec.Kind == InstructionKind::Bytecode) {
    Out += "    operand stack =";
    if (P.Output.Stack.empty())
      Out += " (empty)";
    for (const ConcolicValue &V : P.Output.Stack) {
      Out += ' ';
      Out += printObjTerm(V.S);
    }
    Out += "\n";
  }
  for (const SlotStoreEffect &E : P.SlotStores)
    if (E.Object->isVar())
      Out += formatString("    %s.slot%lld = %s\n",
                          printObjTerm(E.Object).c_str(),
                          (long long)E.Index,
                          printObjTerm(E.Value.S).c_str());
  for (const ByteStoreEffect &E : P.ByteStores)
    if (E.Object->isVar())
      Out += formatString("    %s bytes[%lld..%lld) written\n",
                          printObjTerm(E.Object).c_str(),
                          (long long)E.Offset,
                          (long long)(E.Offset + E.Width));
  if (!pathIsReplayable(Spec, P))
    Out += "    (expected failure: not replayed against compilers)\n";
  return Out;
}

std::string igdt::renderInstructionTestSuite(const ExplorationResult &R) {
  std::string Out = formatString("suite \"%s\" (%zu paths, %u tests)\n\n",
                                 R.Spec->Name.c_str(), R.Paths.size(),
                                 generatedTestCount(R));
  for (std::size_t I = 0; I < R.Paths.size(); ++I) {
    Out += renderPathAsTest(R, I);
    Out += "\n";
  }
  return Out;
}

unsigned igdt::generatedTestCount(const ExplorationResult &R) {
  unsigned N = 0;
  for (const PathSolution &P : R.Paths)
    N += pathIsReplayable(*R.Spec, P) ? 1 : 0;
  return N;
}
