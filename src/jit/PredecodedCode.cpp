//===- jit/PredecodedCode.cpp - Pre-decoded threaded dispatch form --------===//

#include "jit/PredecodedCode.h"

#include "jit/CompiledCode.h"
#include "jit/MachineSim.h"

#include <memory>

using namespace igdt;

PredecodedCode igdt::predecode(const std::vector<MInstr> &Code) {
  PredecodedCode P;
  const std::size_t N = Code.size();
  P.Instrs.resize(N);
  if (N == 0)
    return P;

  // Leaders: entry, every branch target, and every successor of an
  // instruction that can transfer or end control. Terminators are thus
  // always block-final, which is what lets the fast path charge a whole
  // block's fuel at its leader (a terminator at offset L-1 is only
  // reached when the block had fuel for all L instructions). Until the
  // block lengths are known, a nonzero BlockLen marks a leader.
  auto Leader = [&](std::size_t I) -> std::uint32_t & {
    return P.Instrs[I].BlockLen;
  };
  Leader(0) = 1;
  auto MarkTarget = [&](std::int32_t T) {
    if (T >= 0 && static_cast<std::size_t>(T) < N)
      Leader(static_cast<std::size_t>(T)) = 1;
  };
  for (std::size_t I = 0; I < N; ++I) {
    switch (Code[I].Op) {
    case MOp::Jmp:
    case MOp::Jcc:
      MarkTarget(Code[I].Target);
      if (I + 1 < N)
        Leader(I + 1) = 1;
      break;
    case MOp::Ret:
    case MOp::Brk:
    case MOp::CallTramp:
      if (I + 1 < N)
        Leader(I + 1) = 1;
      break;
    default:
      break;
    }
  }

  for (std::size_t I = 0; I < N; ++I) {
    const MInstr &M = Code[I];
    PInstr &D = P.Instrs[I];
    MOp Op = M.Op;
    if (Op == MOp::Jcc && M.Cond == MCond::Always)
      Op = MOp::Jmp; // densify: an unconditional Jcc needs no flag test
    D.Handler = static_cast<std::uint8_t>(Op);
    D.Cond = static_cast<std::uint8_t>(M.Cond);
    D.A = static_cast<std::uint8_t>(M.A);
    D.B = static_cast<std::uint8_t>(M.B);
    D.FA = static_cast<std::uint8_t>(M.FA);
    D.FB = static_cast<std::uint8_t>(M.FB);
    D.Aux = M.Aux;
    D.Imm = M.Imm;
    // An absent target (-1) wraps to a huge index; the dispatcher's
    // bounds check turns it into the same ran-past-the-end exit the
    // reference loop produces for size_t(-1).
    D.Target = static_cast<std::uint32_t>(M.Target);
  }

  for (std::size_t I = 0; I < N;) {
    std::size_t End = I + 1;
    while (End < N && !Leader(End))
      ++End;
    P.Instrs[I].BlockLen = static_cast<std::uint32_t>(End - I);
    ++P.BlockCount;
    I = End;
  }
  return P;
}

const PredecodedCode &igdt::predecodedFor(const CompiledCode &Code,
                                          SimStats *Stats) {
  if (!Code.Predecoded) {
    Code.Predecoded =
        std::make_shared<const PredecodedCode>(predecode(Code.Code));
    if (Stats)
      ++Stats->PredecodeBuilds;
  } else if (Stats) {
    ++Stats->PredecodeHits;
  }
  return *Code.Predecoded;
}
