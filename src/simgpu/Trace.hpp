/**
 * @file
 * Per-warp instruction traces and the builder kernels use to emit
 * them.
 *
 * A trace is the dynamic instruction stream of one warp, with
 * per-lane global addresses attached to memory operations. Registers
 * are virtual ids used only to express producer/consumer dependencies
 * for the scoreboard.
 */

#ifndef GSUITE_SIMGPU_TRACE_HPP
#define GSUITE_SIMGPU_TRACE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "simgpu/Isa.hpp"

namespace gsuite {

/** Virtual register id; kNoReg means "no operand". */
using Reg = uint8_t;
constexpr Reg kNoReg = 0xff;
constexpr int kNumWarpRegs = 64;

/** One dynamic warp instruction. */
struct SimInstr {
    Op op = Op::EXIT;
    Reg dst = kNoReg;
    Reg srcA = kNoReg;
    Reg srcB = kNoReg;
    uint32_t activeMask = 0xffffffffu;
    uint32_t addrOffset = 0; ///< index into WarpTrace::addrs
    uint16_t addrCount = 0;  ///< lane addresses attached

    /** Number of active lanes. */
    int activeLanes() const { return __builtin_popcount(activeMask); }
};

/** The dynamic instruction stream of one warp. */
struct WarpTrace {
    std::vector<SimInstr> instrs;
    std::vector<uint64_t> addrs;

    void
    clear()
    {
        instrs.clear();
        addrs.clear();
    }

    /** Lane addresses of instruction @p i. */
    std::span<const uint64_t>
    addrsOf(const SimInstr &in) const
    {
        return {addrs.data() + in.addrOffset, in.addrCount};
    }
};

/**
 * Emits instructions into a WarpTrace with rotating virtual register
 * allocation. The rotation window (kNumWarpRegs) is large enough that
 * false dependencies are negligible, mirroring a compiler that has
 * plenty of architectural registers.
 *
 * A builder can be *budgeted* (streaming mode): full() turns true once
 * the chunk holds at least the budgeted instruction count, and the
 * register-rotation cursor lives outside the builder so it survives
 * across the chunks of one warp. Emitting past the budget is allowed
 * (the budget is a soft watermark); generators should simply check
 * full() between logical instruction groups.
 */
class TraceBuilder
{
  public:
    /** Unbounded builder with its own register cursor. */
    explicit TraceBuilder(WarpTrace &trace);

    /**
     * Budgeted builder for one chunk of a streamed trace.
     *
     * @param trace The chunk to append to.
     * @param instr_budget Soft cap on instructions for this chunk.
     * @param reg_cursor Rotation cursor persisted by the caller
     *        across refills of the same warp.
     */
    TraceBuilder(WarpTrace &trace, size_t instr_budget,
                 uint8_t &reg_cursor);

    /** True once the chunk reached its instruction budget. */
    bool
    full() const
    {
        return trace.instrs.size() >= budget;
    }

    /** Emit an ALU op; returns the destination register. */
    Reg alu(Op op, Reg a = kNoReg, Reg b = kNoReg,
            uint32_t mask = 0xffffffffu);

    /** Shorthand for a chain of @p n identical ALU ops. */
    void aluChain(Op op, int n, uint32_t mask = 0xffffffffu);

    /**
     * Emit a global load with per-lane addresses; returns the loaded
     * register. Lanes beyond addrs.size() are inactive.
     */
    Reg load(std::span<const uint64_t> lane_addrs, Reg addr_src = kNoReg);

    /** Emit a global store of register @p value. */
    void store(std::span<const uint64_t> lane_addrs, Reg value);

    /** Emit a global atomic reduction (no destination register). */
    void atomic(std::span<const uint64_t> lane_addrs, Reg value);

    /** Emit a shared-memory load (no global traffic). */
    Reg sharedLoad(uint32_t mask = 0xffffffffu);

    /** Emit a shared-memory store. */
    void sharedStore(Reg value, uint32_t mask = 0xffffffffu);

    /** Emit loop/branch control. */
    void control(uint32_t mask = 0xffffffffu);

    /** Emit a CTA barrier. */
    void barrier();

    /** Emit the warp terminator. Must be the last instruction. */
    void exit();

  private:
    WarpTrace &trace;
    size_t budget;
    uint8_t ownCursor = 0;
    uint8_t *cursor;

    Reg allocReg();
    uint32_t pushAddrs(std::span<const uint64_t> lane_addrs,
                       uint16_t &count);
};

/** Active mask with the lowest @p n lanes set. */
uint32_t maskOfLanes(int n);

} // namespace gsuite

#endif // GSUITE_SIMGPU_TRACE_HPP
