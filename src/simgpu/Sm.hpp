/**
 * @file
 * The streaming-multiprocessor timing model.
 *
 * Each SM hosts up to maxWarpsPerSm resident warps split across
 * numSchedulers warp schedulers (GTO or LRR). Every cycle, every
 * resident warp is classified into one of the Fig. 6 issue states,
 * and every scheduler slot into one of the Fig. 7 occupancy buckets.
 * Dependencies are tracked with a per-warp scoreboard of virtual
 * register ready-times; global memory goes through MemorySystem.
 *
 * Issue fast path (default): per-warp classifications are cached in
 * structure-of-arrays form (stall class, unblock cycle, expiry
 * cycle, decoded head) and only recomputed when they can change —
 * at `slotExpiry` (the earliest cycle the cached class could read
 * differently) or after an explicit state change (issue, memory
 * completion, barrier release, CTA assignment). The per-cycle work
 * is event-driven: one slot-order scan of slotExpiry re-derives the
 * expired classifications, schedulers issue in O(1) from
 * incrementally maintained per-port ready lists, and the Fig. 6
 * stall attribution comes from incrementally maintained per-class
 * counts — no per-warp virtual-register scoreboard walk per cycle
 * (the earliest stall-clear event is swept only on no-issue cycles,
 * each of which opens a fast-forward window). MshrFull (L1 MSHR table
 * full) is one per-SM gate, not a cached class: each step reads it
 * once and applies it at issue and in the census. The pre-SoA path is
 * kept verbatim behind GpuConfig::referenceIssue; both paths produce
 * bit-identical statistics (KernelStats::classifyEvals, a
 * diagnostic, is the single intended exception), enforced by
 * tests/sim_determinism_test and tests/fuzz_test.
 *
 * Cycle skipping: when nothing issued and every warp's unblock
 * cycle is known, the SM freezes until the earliest of them
 * (idleUntil) and replays its last classification via
 * accountExtra(), attributing the skipped cycles to the same
 * Fig. 6 stall classes / Fig. 7 buckets. The simulator performs
 * the same bulk accounting across SMs when the whole GPU stalls.
 *
 * Phase contract: global-memory instructions are split across the
 * cycle's phases — the SM begins the access during its step
 * (coalescing + its own L1), the memory slices resolve it after every
 * SM has stepped, and the SM folds the completion back into its warp
 * state at the start of its next step. Each SM writes its statistics
 * into its own KernelStats instance; the simulator reduces them in
 * SM-index order.
 *
 * Warp traces stream in fixed-budget chunks refilled on demand from
 * the launch's WarpTraceStream, bounding trace memory at
 * O(resident warps x chunk size).
 */

#ifndef GSUITE_SIMGPU_SM_HPP
#define GSUITE_SIMGPU_SM_HPP

#include <array>
#include <bitset>
#include <cstdint>
#include <vector>

#include "simgpu/CtaSampler.hpp"
#include "simgpu/GpuConfig.hpp"
#include "simgpu/KernelLaunch.hpp"
#include "simgpu/KernelStats.hpp"
#include "simgpu/MemorySystem.hpp"

namespace gsuite {

/** One streaming multiprocessor. */
class Sm
{
  public:
    Sm(const GpuConfig &cfg, int sm_id, MemorySystem &mem);

    /**
     * Prepare for a new launch.
     *
     * @param launch The launch to simulate.
     * @param stats This SM's private statistics sink.
     * @param chunk_instrs Trace-chunk instruction budget.
     * @param idle_skip Enable per-SM idle fast-forwarding (always on
     *        except in the cycle-skip fuzz oracle, see
     *        SimOptions::perSmFastForward).
     * @param sample_records Optional sink receiving one
     *        CtaSampleRecord per CTA completed on this SM (CTA-
     *        sampled simulation); nullptr disables the bookkeeping.
     */
    void beginLaunch(const KernelLaunch *launch, KernelStats *stats,
                     size_t chunk_instrs, bool idle_skip,
                     std::vector<CtaSampleRecord> *sample_records =
                         nullptr);

    /** True if another CTA can become resident. */
    bool hasFreeCtaSlot() const;

    /**
     * Make CTA @p cta_id resident. Cheap: warp trace streams are only
     * instantiated here; their first chunks materialize lazily during
     * the next step phase.
     */
    void assignCta(int64_t cta_id, uint64_t cycle);

    /** True while any warp is resident and unfinished. */
    bool busy() const { return residentWarps > 0; }

    /**
     * Simulate one cycle: finalize last cycle's parked memory access,
     * refill exhausted trace chunks, classify all warps, let each
     * scheduler issue at most one instruction, and record statistics.
     *
     * @param cycle Current cycle.
     * @param next_event Monotonically lowered to the earliest future
     *        cycle at which this SM's state can change.
     * @return True if any instruction issued.
     */
    bool stepCycle(uint64_t cycle, uint64_t &next_event);

    /**
     * Account @p delta further cycles with the same classification as
     * the last stepCycle() (used to fast-forward long stalls).
     */
    void accountExtra(uint64_t delta);

    /**
     * Fold an unconsumed parked memory access into warp state and
     * stats (end of run, when no further step will happen).
     */
    void drainParkedMem();

    /**
     * Read-only snapshot of this SM's cumulative warp-scheduler
     * counters as of @p cycle, for trace sampling (hwdb
     * `trace.sampling_core`). Called from the control phase, after
     * every stepCycle() of the cycle, and touches no mutable
     * state, so sampling cannot perturb any
     * deterministic counter.
     */
    SmSchedSample sampleSchedState(uint64_t cycle) const
    {
        SmSchedSample s;
        s.cycle = cycle;
        if (stats) {
            s.stallCycles = stats->stallCycles;
            s.occCycles = stats->occCycles;
        }
        return s;
    }

  private:
    /** Cold per-warp state (touched on issue / refill, not per cycle). */
    struct WarpCtx {
        bool active = false;
        bool done = false;
        bool waitingBarrier = false;
        WarpTrace chunk; ///< resident trace window (reused arena)
        WarpTraceStream stream;
        bool streamDone = false;
        uint8_t regCursor = 0;
        size_t pc = 0; ///< index into chunk
        std::array<uint64_t, kNumWarpRegs> regReady{};
        std::bitset<kNumWarpRegs> regFromMem;
        uint64_t fetchReady = 0;
        uint64_t atomicDrain = 0;
        int cta = -1;
        uint64_t ageStamp = 0;
        uint64_t chunkBytes = 0; ///< current chunk footprint
    };

    struct CtaCtx {
        bool active = false;
        int64_t ctaId = -1;
        int liveWarps = 0;
        int arrived = 0; ///< warps waiting at the barrier
        std::vector<int> warpSlots;
        // CTA-sample bookkeeping (maintained only when the launch
        // runs with a sample-record sink).
        uint64_t startCycle = 0;
        uint64_t instrs = 0;
    };

    /** Pre-issue classification of one warp (reference path scratch). */
    struct Classification {
        StallReason reason = StallReason::NotSelected;
        uint64_t event = 0; ///< cycle the blocking condition clears
    };

    const GpuConfig &cfg;
    int smId;
    MemorySystem &mem;
    const KernelLaunch *launch = nullptr;
    KernelStats *stats = nullptr;
    size_t chunkBudget = 256;
    bool idleSkip = true;
    /** Per-CTA completion sink (CTA sampling); nullptr when off. */
    std::vector<CtaSampleRecord> *sampleRecords = nullptr;

    std::vector<WarpCtx> warps;
    std::vector<CtaCtx> ctas;
    std::vector<Classification> cls; ///< reference-path scratch
    std::vector<uint64_t> aluFree;   ///< per-scheduler ALU port
    std::vector<int> greedyWarp;     ///< GTO sticky pointer
    std::vector<int> rrCursor;       ///< LRR rotation pointer
    uint64_t lsuFree = 0;
    int residentWarps = 0;
    int maxResidentCtas = 0;
    uint64_t ageCounter = 0;

    // --- SoA warp-issue state (fast path) ---------------------------
    //
    // Invariant: for every slot with slotActive[i] != 0, the cached
    // (slotReason, slotUnblock) equal what the reference classify()
    // would return this cycle, provided slotExpiry[i] > cycle and
    // setting MshrFull aside (a per-SM gate the step applies). Any
    // mutation of warp state that could change the classification
    // must lower slotExpiry (markDirty) so the next step's scan
    // re-derives it; reclassify() keeps the per-scheduler ready
    // lists in sync with slotReason. slotExpiry is the only record
    // of what is due: each step scans it in slot order, so the due
    // set is exactly the active slots with slotExpiry <= cycle.
    std::vector<uint8_t> slotActive;   ///< resident and not done
    std::vector<uint8_t> slotReason;   ///< cached StallReason
    std::vector<uint64_t> slotUnblock; ///< cycle the stall clears
    std::vector<uint64_t> slotExpiry;  ///< first cycle cache can drift
    std::vector<uint64_t> slotAge;     ///< ageStamp copy (GTO order)
    std::vector<uint8_t> slotIsMem;    ///< head instr needs the LSU
    std::vector<uint8_t> slotNeedsAlu; ///< head instr needs the ALU
    std::vector<uint8_t> slotLanes;    ///< head instr active lanes
    /**
     * Ready (issuable) slots per scheduler, segregated by the
     * execution port the head instruction needs (kReadyAlu /
     * kReadyMem / kReadyOther) and kept sorted by ageStamp
     * ascending. A whole busy port disqualifies its entire list, so
     * GTO's pick is an O(1) head comparison across the eligible
     * lists instead of attempting every blocked candidate; the
     * blocked lists' head ages still tell exactly which reference
     * attempts would have happened (for the structural-stall flag
     * and hazard event merges, which are idempotent per port).
     */
    std::array<std::vector<std::vector<int>>, 3> readyKind;
    static constexpr int kReadyAlu = 0;
    static constexpr int kReadyMem = 1;
    static constexpr int kReadyOther = 2;
    std::vector<int> readyPos; ///< slot -> index in its list, -1 none
    std::vector<uint8_t> slotReadyKind; ///< list a ready slot is in
    std::vector<int> residentBySched; ///< resident warps / scheduler
    /** Active slots per cached stall class (incremental Fig. 6). */
    std::array<uint64_t, kNumStallReasons> stallCount{};

    /**
     * Parked memory access awaiting slice resolution: the issuing
     * warp slot (or -1) plus where the completion lands.
     */
    int parkedWarp = -1;
    Reg parkedDst = kNoReg;
    MemAccessKind parkedKind = MemAccessKind::Load;

    /**
     * Nothing on this SM can change before this cycle (no issue
     * possible, all events known): stepCycle() just replays the last
     * classification until then. Cleared by CTA assignment.
     */
    uint64_t idleUntil = 0;

    uint64_t residentTraceBytes = 0;
    uint64_t peakTraceBytes = 0;

    // Last cycle's per-state counts, for accountExtra().
    std::array<uint64_t, kNumStallReasons> lastStall{};
    std::array<uint64_t, kNumOccBuckets> lastOcc{};

    Classification classify(int slot, uint64_t cycle) const;
    void issueInstr(int slot, uint64_t cycle, int sched);
    void releaseBarrierIfComplete(CtaCtx &cta, uint64_t cycle);
    void finishWarp(int slot, uint64_t cycle);
    OccBucket bucketForLanes(int lanes) const;
    void refillChunk(WarpCtx &w);
    void finalizeParkedMem();

    // Fast-path helpers.
    void markDirty(int slot, uint64_t at_cycle);
    void readyInsert(int slot);
    void readyRemove(int slot);
    void setReason(int slot, StallReason reason);
    void reclassify(int slot, uint64_t cycle);
    bool stepCycleFast(uint64_t cycle, uint64_t &next_event);
    bool stepCycleReference(uint64_t cycle, uint64_t &next_event);
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_SM_HPP
