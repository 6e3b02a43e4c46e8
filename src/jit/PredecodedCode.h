//===- jit/PredecodedCode.h - Pre-decoded threaded dispatch form ----------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pre-decoded execution form for simulated machine code, built once
/// per compilation unit and executed by the threaded fast path in
/// MachineSim (emulator practice: resolve operands and densify handler
/// ids ahead of time, then dispatch with computed goto instead of a
/// branchy switch). Instructions map 1:1 onto the originating MInstr
/// vector — PInstr index == MInstr index — so the fast path can hand
/// any program point to the reference switch loop and continue with
/// byte-identical semantics.
///
/// Basic-block leaders additionally carry the block's instruction
/// count, letting the fast path charge fuel once per block instead of
/// once per instruction (see MachineSim::runPredecoded for the
/// accounting contract that keeps FuelLeft bit-equal to the reference
/// loop's).
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_JIT_PREDECODEDCODE_H
#define IGDT_JIT_PREDECODEDCODE_H

#include "jit/MachineCode.h"

#include <cstdint>
#include <vector>

namespace igdt {

struct CompiledCode;
struct SimStats;

/// One pre-decoded instruction. Fields are flattened to raw integers so
/// a handler reads exactly what it needs with no enum re-decoding; the
/// handler id is the MOp value except where forms are densified at
/// build time (an unconditional Jcc becomes a Jmp, dropping the flag
/// test from the hot loop).
struct PInstr {
  std::uint8_t Handler = 0; ///< Dispatch-table index (MOp value space).
  std::uint8_t Cond = 0;    ///< MCond value (Jcc only).
  std::uint8_t A = 0;       ///< GP destination/source register number.
  std::uint8_t B = 0;       ///< GP source register number.
  std::uint8_t FA = 0;      ///< FP destination/source register number.
  std::uint8_t FB = 0;      ///< FP source register number.
  std::uint16_t Aux = 0;    ///< Selector / marker / runtime function id.
  /// Basic-block leaders: number of instructions in the block this
  /// instruction starts; 0 for instructions inside a block.
  std::uint32_t BlockLen = 0;
  std::uint32_t Target = 0; ///< Jump target (huge value when absent).
  std::int64_t Imm = 0;     ///< Immediate operand.
};

/// The pre-decoded form of one compilation unit.
struct PredecodedCode {
  std::vector<PInstr> Instrs; ///< 1:1 with the originating MInstr vector.
  std::uint32_t BlockCount = 0;
};

/// Builds the pre-decoded form of \p Code: computes basic-block leaders
/// ({0} ∪ branch targets ∪ successors of control transfers), stamps
/// each leader with its block length, and flattens operands.
PredecodedCode predecode(const std::vector<MInstr> &Code);

/// The pre-decoded form of \p Code, building and caching it on first
/// use. The cache lives on the CompiledCode itself, which the code cache
/// shares among every path of a compilation unit, so a unit is
/// predecoded at most once no matter how many paths replay it.
/// Build/hit counters land in \p Stats when non-null. Not thread-safe
/// against concurrent calls on one CompiledCode; owners keep compiled
/// code worker-local like the code cache itself.
const PredecodedCode &predecodedFor(const CompiledCode &Code,
                                    SimStats *Stats);

} // namespace igdt

#endif // IGDT_JIT_PREDECODEDCODE_H
