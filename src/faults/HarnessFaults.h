//===- faults/HarnessFaults.h - Harness-fault injection plans ------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault injection for the testing machinery itself, complementing the
/// DefectCatalog (which seeds defects into the system *under* test). An
/// armed harness fault makes one stage of the campaign malfunction —
/// solver hang, simulator fuel exhaustion, compiler front-end crash or
/// heap corruption — on a chosen instruction. The campaign self-tests
/// use these plans to prove that every such malfunction is contained:
/// the faulted instruction is quarantined, an incident is logged, and
/// the rest of the campaign is unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_FAULTS_HARNESSFAULTS_H
#define IGDT_FAULTS_HARNESSFAULTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace igdt {

/// The injectable harness malfunctions, one per campaign stage.
enum class HarnessFaultKind : std::uint8_t {
  /// The solver throws at query entry (a blow-up no search cap catches).
  SolverHang,
  /// The simulator starts with one unit of fuel, so every replay
  /// exhausts it; the campaign treats that as a harness fault.
  SimFuelExhaustion,
  /// The compiler front end throws at compile entry.
  FrontEndThrow,
  /// The exploration heap is poisoned; the first integrity check (on
  /// frame materialisation or allocation) throws.
  HeapCorruption,
};

const char *harnessFaultKindName(HarnessFaultKind Kind);

/// One armed fault, targeted at a catalog instruction by name.
struct ArmedFault {
  HarnessFaultKind Kind = HarnessFaultKind::SolverHang;
  /// Catalog instruction the fault fires on.
  std::string Instruction;
  /// A transient fault fires only on the first attempt, so the
  /// campaign's fresh-heap retry recovers the instruction; a sticky
  /// fault (the default) fires on every attempt and forces quarantine.
  bool Transient = false;
};

/// A campaign's fault-injection plan.
struct HarnessFaultPlan {
  std::vector<ArmedFault> Faults;

  bool any() const { return !Faults.empty(); }

  /// True when a fault of \p Kind should fire on \p Instruction during
  /// \p Attempt (1-based).
  bool armedFor(HarnessFaultKind Kind, const std::string &Instruction,
                unsigned Attempt) const;

  /// Names of the instructions the plan targets (deduplicated, in
  /// arming order) — the expected quarantine set for sticky plans.
  std::vector<std::string> targets() const;
};

} // namespace igdt

#endif // IGDT_FAULTS_HARNESSFAULTS_H
