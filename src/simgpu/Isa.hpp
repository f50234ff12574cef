/**
 * @file
 * The SASS-like micro-ISA the simulator executes.
 *
 * Kernel trace generators lower each CUDA-level kernel into streams of
 * these operations; the classes map onto the paper's Fig. 5 breakdown
 * (FP32 / INT / Load-Store / Control / other).
 */

#ifndef GSUITE_SIMGPU_ISA_HPP
#define GSUITE_SIMGPU_ISA_HPP

#include <cstdint>
#include <string>

namespace gsuite {

/** Dynamic operation kinds. */
enum class Op : uint8_t {
    FP32, ///< fused multiply-add / add / mul on the FP32 pipe
    INT,  ///< integer ALU (address math, predicates)
    SFU,  ///< special function (rsqrt, exp) — "other" in Fig. 5
    LDG,  ///< load from global memory
    STG,  ///< store to global memory
    ATOM, ///< global atomic reduction (scatter)
    LDS,  ///< shared-memory load (sgemm tiles)
    STS,  ///< shared-memory store
    CTRL, ///< branch / loop control
    BAR,  ///< CTA-wide barrier (__syncthreads)
    EXIT, ///< end of warp program
};

/** Fig. 5 instruction classes. */
enum class InstrClass : uint8_t {
    Fp32,
    Int,
    LoadStore,
    Control,
    Other,
};

/**
 * Map an op to its Fig. 5 class. Inline: the simulator's issue loop
 * consults this per dynamic instruction.
 */
constexpr InstrClass
instrClassOf(Op op)
{
    switch (op) {
      case Op::FP32:
        return InstrClass::Fp32;
      case Op::INT:
        return InstrClass::Int;
      case Op::LDG:
      case Op::STG:
      case Op::ATOM:
      case Op::LDS:
      case Op::STS:
        return InstrClass::LoadStore;
      case Op::CTRL:
      case Op::BAR:
      case Op::EXIT:
        return InstrClass::Control;
      case Op::SFU:
        return InstrClass::Other;
    }
    return InstrClass::Other; // unreachable for valid ops
}

/** Human-readable class name matching the paper's legend. */
const char *instrClassName(InstrClass c);

/** Number of InstrClass values. */
constexpr int kNumInstrClasses = 5;

/** True for operations that access the global memory system. */
constexpr bool
isGlobalMemOp(Op op)
{
    return op == Op::LDG || op == Op::STG || op == Op::ATOM;
}

/** True for operations executed by the SM-local LSU (incl. shared). */
constexpr bool
isMemOp(Op op)
{
    return isGlobalMemOp(op) || op == Op::LDS || op == Op::STS;
}

} // namespace gsuite

#endif // GSUITE_SIMGPU_ISA_HPP
