//===- evalkit/Experiments.h - Paper tables and figures -------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renderers for every table and figure of the paper's evaluation (§5).
/// They only format: the data comes from one campaign
/// (Session::runCampaign) or, for Table 1 and Figure 2, from one
/// exploration of the add byte-code (Session::explore). The bench
/// binaries and the integration tests are thin wrappers over them.
///
///  - Table 1 / Figure 2: concolic paths of the add byte-code;
///  - Table 2: instructions / paths / curated paths / differences per
///    compiler (both back-ends, differences unioned);
///  - Table 3: defect causes by family (deduplicated);
///  - Figure 5: paths per instruction, byte-codes vs native methods;
///  - Figure 6: concolic exploration time per instruction kind;
///  - Figure 7: differential test execution time per compiler.
///
/// Figures 5 and 6 read the non-quarantined campaign records.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_EVALKIT_EXPERIMENTS_H
#define IGDT_EVALKIT_EXPERIMENTS_H

#include "evalkit/CampaignRunner.h"

#include <string>
#include <vector>

namespace igdt {

/// \name Rendered artifacts
/// @{
std::string renderTable1(const ExplorationResult &Add);
std::string renderFigure2Trace(const ExplorationResult &Add);
std::string renderTable2(const std::vector<CompilerEvaluation> &Rows);
std::string renderTable3(const std::vector<CompilerEvaluation> &Rows);
std::string renderFigure5(const std::vector<InstructionRecord> &Records);
std::string renderFigure6(const std::vector<InstructionRecord> &Records);
std::string renderFigure7(const std::vector<CompilerEvaluation> &Rows);
/// @}

} // namespace igdt

#endif // IGDT_EVALKIT_EXPERIMENTS_H
