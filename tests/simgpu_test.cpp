/**
 * @file
 * Tests for the GPU timing simulator: ISA classification, trace
 * building, device allocation, the sectored cache, the memory system
 * and end-to-end simulation of synthetic kernels with known
 * behaviour (ALU-bound, memory-bound, barriers, atomics).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "simgpu/Cache.hpp"
#include "simgpu/DeviceAllocator.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "simgpu/Isa.hpp"
#include "simgpu/KernelLaunch.hpp"
#include "simgpu/MemLevel.hpp"
#include "simgpu/MemorySystem.hpp"
#include "simgpu/Trace.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

/** A launch whose warps all run the same generator body. */
KernelLaunch
uniformLaunch(const char *name, int64_t ctas, int threads,
              std::function<void(TraceBuilder &)> body)
{
    KernelLaunch l;
    l.name = name;
    l.kind = KernelClass::Aux;
    l.dims.numCtas = ctas;
    l.dims.threadsPerCta = threads;
    l.streamTrace = [body = std::move(body)](int64_t,
                                             int) -> WarpTraceStream {
        return [body](TraceBuilder &b) {
            body(b);
            b.exit();
            return true;
        };
    };
    return l;
}

GpuConfig
tinyNoSampling()
{
    GpuConfig cfg = GpuConfig::testTiny();
    cfg.smSampleFactor = 1;
    return cfg;
}

} // namespace

TEST(Isa, ClassificationMatchesFig5Legend)
{
    EXPECT_EQ(instrClassOf(Op::FP32), InstrClass::Fp32);
    EXPECT_EQ(instrClassOf(Op::INT), InstrClass::Int);
    EXPECT_EQ(instrClassOf(Op::LDG), InstrClass::LoadStore);
    EXPECT_EQ(instrClassOf(Op::STG), InstrClass::LoadStore);
    EXPECT_EQ(instrClassOf(Op::ATOM), InstrClass::LoadStore);
    EXPECT_EQ(instrClassOf(Op::LDS), InstrClass::LoadStore);
    EXPECT_EQ(instrClassOf(Op::CTRL), InstrClass::Control);
    EXPECT_EQ(instrClassOf(Op::BAR), InstrClass::Control);
    EXPECT_EQ(instrClassOf(Op::SFU), InstrClass::Other);
    EXPECT_STREQ(instrClassName(InstrClass::LoadStore), "Load/Store");
}

TEST(Trace, MaskOfLanes)
{
    EXPECT_EQ(maskOfLanes(32), 0xffffffffu);
    EXPECT_EQ(maskOfLanes(0), 0u);
    EXPECT_EQ(maskOfLanes(1), 1u);
    EXPECT_EQ(maskOfLanes(8), 0xffu);
}

TEST(Trace, BuilderTracksDependencies)
{
    WarpTrace t;
    TraceBuilder b(t);
    const Reg r1 = b.alu(Op::INT);
    const Reg r2 = b.alu(Op::FP32, r1);
    b.exit();
    ASSERT_EQ(t.instrs.size(), 3u);
    EXPECT_EQ(t.instrs[1].srcA, r1);
    EXPECT_EQ(t.instrs[1].dst, r2);
    EXPECT_NE(r1, r2);
    EXPECT_EQ(t.instrs[2].op, Op::EXIT);
}

TEST(Trace, LoadAttachesAddresses)
{
    WarpTrace t;
    TraceBuilder b(t);
    const std::array<uint64_t, 3> addrs = {100, 200, 300};
    b.load({addrs.data(), addrs.size()});
    ASSERT_EQ(t.instrs.size(), 1u);
    EXPECT_EQ(t.instrs[0].addrCount, 3);
    EXPECT_EQ(t.instrs[0].activeMask, maskOfLanes(3));
    const auto span = t.addrsOf(t.instrs[0]);
    EXPECT_EQ(span[1], 200u);
}

TEST(Trace, ActiveLanesPopcount)
{
    SimInstr in;
    in.activeMask = 0xffffffffu;
    EXPECT_EQ(in.activeLanes(), 32);
    in.activeMask = 0x5;
    EXPECT_EQ(in.activeLanes(), 2);
}

TEST(DeviceAllocatorTest, StableAlignedAddresses)
{
    DeviceAllocator alloc;
    int x = 0, y = 0;
    const uint64_t ax = alloc.map(&x, 100);
    const uint64_t ay = alloc.map(&y, 4);
    EXPECT_NE(ax, ay);
    EXPECT_EQ(ax % 256, 0u);
    EXPECT_EQ(ay % 256, 0u);
    EXPECT_EQ(alloc.map(&x, 100), ax); // idempotent
    EXPECT_EQ(alloc.addressOf(&y), ay);
    EXPECT_TRUE(alloc.isMapped(&x));
    alloc.reset();
    EXPECT_FALSE(alloc.isMapped(&x));
}

TEST(CacheModel, HitAfterFill)
{
    Cache c(CacheGeometry{1024, 128, 32, 2});
    EXPECT_FALSE(c.probe(0x1000, 1).hit);
    c.fill(0x1000, 1, 10);
    const CacheProbe p = c.probe(0x1000, 2);
    EXPECT_TRUE(p.hit);
    EXPECT_EQ(p.ready, 10u);
}

TEST(CacheModel, SectorGranularity)
{
    Cache c(CacheGeometry{1024, 128, 32, 2});
    c.fill(0x1000, 1, 1);
    // Same line, different sector: miss until filled.
    EXPECT_FALSE(c.probe(0x1020, 2).hit);
    c.fill(0x1020, 2, 2);
    EXPECT_TRUE(c.probe(0x1020, 3).hit);
    EXPECT_TRUE(c.probe(0x1000, 3).hit);
}

TEST(CacheModel, LruEviction)
{
    // 2-way, 4 sets (1024/128/2): addresses mapping to set 0.
    Cache c(CacheGeometry{1024, 128, 32, 2});
    const uint64_t set_stride = 4 * 128; // numSets * lineBytes
    c.fill(0 * set_stride, 1, 1);
    c.fill(1 * set_stride, 2, 2);
    EXPECT_TRUE(c.probe(0, 3).hit); // touch A; B becomes LRU
    c.fill(2 * set_stride, 4, 4);   // evicts B
    EXPECT_TRUE(c.probe(0, 5).hit);
    EXPECT_FALSE(c.probe(1 * set_stride, 5).hit);
    EXPECT_TRUE(c.probe(2 * set_stride, 5).hit);
}

TEST(CacheModel, FlushInvalidates)
{
    Cache c(CacheGeometry{1024, 128, 32, 2});
    c.fill(0x40, 1, 1);
    c.flush();
    EXPECT_FALSE(c.probe(0x40, 2).hit);
}

TEST(MshrTable, MergeReusesEntryAndRevertsToPending)
{
    MshrTable t;
    t.configure({2, 4, 2});
    uint64_t at = 10;
    const int e0 = t.acquire(100, at);
    ASSERT_EQ(e0, 0);
    EXPECT_EQ(at, 10u);
    t.release(e0, 50);
    EXPECT_EQ(t.nextRelease(10), 50u);
    // A second miss on the same line merges into the same entry; the
    // merged fill is in flight again, so the entry's release reverts
    // to pending until release() records the new completion (it must
    // never flip ready -> full behind the issue logic's back).
    uint64_t at2 = 20;
    EXPECT_EQ(t.acquire(100, at2), e0);
    EXPECT_EQ(at2, 20u);
    EXPECT_EQ(t.nextRelease(20), MshrTable::kPendingRelease);
    t.release(e0, 80);
    EXPECT_EQ(t.nextRelease(20), 80u);
}

TEST(MshrTable, FullTableDelaysToKnownRelease)
{
    MshrTable t;
    t.configure({1, 1, 1});
    uint64_t at = 10;
    ASSERT_EQ(t.acquire(1, at), 0);
    // While the only entry's release is unknown, no other line can
    // claim an entry at any cycle.
    uint64_t at2 = 20;
    EXPECT_EQ(t.acquire(2, at2), -1);
    t.release(0, 50);
    // A known release lets the acquire delay to it and reuse the slot.
    uint64_t at3 = 20;
    EXPECT_EQ(t.acquire(2, at3), 0);
    EXPECT_EQ(at3, 50u);
}

TEST(MshrTable, ReadyHonorsHitUnderMissLimit)
{
    MshrTable t;
    t.configure({4, 4, 2});
    uint64_t at = 0;
    t.acquire(1, at);
    EXPECT_TRUE(t.ready(0)); // one busy entry < limit 2
    t.acquire(2, at);
    EXPECT_FALSE(t.ready(0)); // at the limit
    t.release(0, 10);
    t.release(1, 30);
    EXPECT_FALSE(t.ready(5));
    EXPECT_TRUE(t.ready(10)); // entry 0 released at 10
}

namespace {

/**
 * Oracle for the MshrTable differential test: the entry-scan table
 * the parallel-array layout replaced, one struct per entry with an
 * explicit "claimed since reset" flag.
 */
class EntryScanMshrTable
{
  public:
    explicit EntryScanMshrTable(const MshrConfig &c)
        : cfg(c), entries(static_cast<size_t>(c.entries))
    {
    }

    void
    reset()
    {
        for (Entry &e : entries) {
            e.used = false;
            e.releaseAt = 0;
            e.merges = 0;
        }
    }

    bool
    ready(uint64_t cycle) const
    {
        int busy = 0;
        for (const Entry &e : entries) {
            if (busyAt(e, cycle) && ++busy >= cfg.hitUnderMiss)
                return false;
        }
        return true;
    }

    uint64_t
    nextRelease(uint64_t cycle) const
    {
        uint64_t next = 0;
        for (const Entry &e : entries) {
            if (!busyAt(e, cycle))
                continue;
            if (e.releaseAt == MshrTable::kPendingRelease)
                return MshrTable::kPendingRelease;
            next = next ? std::min(next, e.releaseAt) : e.releaseAt;
        }
        return next;
    }

    int
    acquire(uint64_t line, uint64_t &at)
    {
        for (size_t i = 0; i < entries.size(); ++i) {
            Entry &e = entries[i];
            if (busyAt(e, at) && e.line == line &&
                e.merges < cfg.maxMerges) {
                ++e.merges;
                e.releaseAt = MshrTable::kPendingRelease;
                return static_cast<int>(i);
            }
        }
        for (;;) {
            for (size_t i = 0; i < entries.size(); ++i) {
                Entry &e = entries[i];
                if (busyAt(e, at))
                    continue;
                e.line = line;
                e.releaseAt = MshrTable::kPendingRelease;
                e.merges = 1;
                e.used = true;
                return static_cast<int>(i);
            }
            const uint64_t rel = nextRelease(at);
            if (rel == MshrTable::kPendingRelease || rel == 0)
                return -1;
            at = rel;
        }
    }

    void
    release(int entry, uint64_t release_at)
    {
        Entry &e = entries[static_cast<size_t>(entry)];
        if (e.releaseAt == MshrTable::kPendingRelease)
            e.releaseAt = release_at;
        else
            e.releaseAt = std::max(e.releaseAt, release_at);
    }

    /** Entries release() accepts (claimed since the last reset). */
    std::vector<int>
    claimed() const
    {
        std::vector<int> out;
        for (size_t i = 0; i < entries.size(); ++i) {
            if (entries[i].used)
                out.push_back(static_cast<int>(i));
        }
        return out;
    }

  private:
    struct Entry {
        uint64_t line = 0;
        uint64_t releaseAt = 0;
        int merges = 0;
        bool used = false;
    };

    MshrConfig cfg;
    std::vector<Entry> entries;

    static bool
    busyAt(const Entry &e, uint64_t cycle)
    {
        return e.used && (e.releaseAt == MshrTable::kPendingRelease ||
                          e.releaseAt > cycle);
    }
};

} // namespace

TEST(MshrTable, MatchesEntryScanOracleOnRandomSequences)
{
    // Seeded random acquire/release/ready/nextRelease/reset sequences
    // on small tables: every return value and every adjusted `at`
    // must match the entry-scan oracle. Few distinct lines force
    // merges; releases include cycle 0 and repeated releases of one
    // (merged) entry.
    Rng rng(2024);
    for (int round = 0; round < 400; ++round) {
        MshrConfig mc;
        mc.entries = 1 + static_cast<int>(rng.nextBelow(8));
        mc.maxMerges = 1 + static_cast<int>(rng.nextBelow(4));
        mc.hitUnderMiss =
            1 + static_cast<int>(rng.nextBelow(
                    static_cast<uint64_t>(mc.entries)));
        SCOPED_TRACE("round " + std::to_string(round) + ": entries " +
                     std::to_string(mc.entries) + ", merges " +
                     std::to_string(mc.maxMerges) + ", hum " +
                     std::to_string(mc.hitUnderMiss));
        MshrTable table;
        table.configure(mc);
        EntryScanMshrTable oracle(mc);
        uint64_t now = 0;
        int last_released = -1;
        for (int op = 0; op < 200; ++op) {
            SCOPED_TRACE("op " + std::to_string(op));
            now += rng.nextBelow(4);
            const uint64_t kind = rng.nextBelow(100);
            if (kind < 35) {
                const uint64_t line = rng.nextBelow(4);
                uint64_t at_t = now + rng.nextBelow(3);
                uint64_t at_o = at_t;
                ASSERT_EQ(table.acquire(line, at_t),
                          oracle.acquire(line, at_o));
                ASSERT_EQ(at_t, at_o);
            } else if (kind < 60) {
                const std::vector<int> claimed = oracle.claimed();
                if (claimed.empty())
                    continue;
                // Re-release the previous entry a third of the time
                // (a merged entry's fills extend its release).
                int entry = claimed[static_cast<size_t>(
                    rng.nextBelow(claimed.size()))];
                if (last_released >= 0 && rng.nextBelow(3) == 0)
                    entry = last_released;
                const uint64_t at = rng.nextBelow(8) == 0
                                        ? 0
                                        : now + rng.nextBelow(20);
                table.release(entry, at);
                oracle.release(entry, at);
                last_released = entry;
            } else if (kind < 78) {
                const uint64_t c = now + rng.nextBelow(10);
                ASSERT_EQ(table.ready(c), oracle.ready(c)) << c;
            } else if (kind < 96) {
                const uint64_t c = now + rng.nextBelow(10);
                ASSERT_EQ(table.nextRelease(c), oracle.nextRelease(c))
                    << c;
            } else {
                table.reset();
                oracle.reset();
                last_released = -1;
            }
        }
    }
}

TEST(MshrTable, ReleaseAtCycleZeroStaysClaimed)
{
    // A claimed entry released at cycle 0 reads like a never-claimed
    // one to every busy check, yet release() must still accept it;
    // after reset() the same release is an internal error.
    MshrTable t;
    t.configure({2, 2, 2});
    uint64_t at = 0;
    ASSERT_EQ(t.acquire(7, at), 0);
    t.release(0, 0);
    EXPECT_TRUE(t.ready(0));
    EXPECT_EQ(t.nextRelease(0), 0u);
    t.release(0, 5); // extends, no panic
    EXPECT_EQ(t.nextRelease(0), 5u);
    t.reset();
    EXPECT_DEATH(t.release(0, 9), "unclaimed entry");
    EXPECT_DEATH(t.release(2, 9), "out of range");
}

TEST(DramChannelTest, FrfcfsReordersForOpenRowsFcfsDoesNot)
{
    // One bank, 64 B rows; requests A(row 0), B(row 1), C(row 0)
    // admitted in order within one cycle.
    const DramConfig fr_cfg{1,  64, 4, 10, 4, 1,
                            DramSchedPolicy::Frfcfs, 8};
    DramChannel fr(fr_cfg, 0, 1.0);
    fr.beginCycle();
    const int a = fr.request(0, 0);
    const int b = fr.request(64, 0);
    const int c = fr.request(32, 0);
    fr.service();
    EXPECT_FALSE(fr.rowHitOf(a)); // cold bank activates
    EXPECT_TRUE(fr.rowHitOf(c));  // first-ready: served before B
    EXPECT_FALSE(fr.rowHitOf(b));
    EXPECT_LT(fr.readyOf(c), fr.readyOf(b));

    DramConfig fc_cfg = fr_cfg;
    fc_cfg.scheduler = DramSchedPolicy::Fcfs;
    DramChannel fc(fc_cfg, 0, 1.0);
    fc.beginCycle();
    fc.request(0, 0);
    const int b2 = fc.request(64, 0);
    const int c2 = fc.request(32, 0);
    fc.service();
    // In order, B's activate closes row 0, so C pays a conflict too.
    EXPECT_FALSE(fc.rowHitOf(b2));
    EXPECT_FALSE(fc.rowHitOf(c2));
    EXPECT_GT(fc.readyOf(c2), fr.readyOf(c));
}

TEST(DramChannelTest, BoundedQueueRefusesWhenFull)
{
    const DramConfig cfg{2, 64, 4, 10, 4, 1, DramSchedPolicy::Fcfs,
                         2};
    DramChannel ch(cfg, 0, 1.0);
    ch.beginCycle();
    EXPECT_TRUE(ch.canAccept(0));
    EXPECT_GE(ch.request(0, 0), 0);
    EXPECT_GE(ch.request(64, 0), 0);
    EXPECT_FALSE(ch.canAccept(0));
    EXPECT_EQ(ch.request(128, 0), -1);
    ch.service();
    EXPECT_EQ(ch.queuePeak(), 2u);
}

TEST(MemorySystemTest, CoalescesContiguousLanes)
{
    const GpuConfig cfg = tinyNoSampling();
    MemorySystem mem(cfg);
    KernelStats st;
    std::array<uint64_t, 32> addrs{};
    for (int i = 0; i < 32; ++i)
        addrs[static_cast<size_t>(i)] = 0x10000 + 4 * i; // 128 bytes
    const auto res = mem.warpAccess(0, 0, {addrs.data(), 32},
                                    MemAccessKind::Load, st);
    EXPECT_EQ(res.sectors, 4); // 128 B / 32 B
    EXPECT_EQ(st.memSectors, 4u);
    EXPECT_EQ(st.memInstrs, 1u);
}

TEST(MemorySystemTest, DivergentLanesTouchManySectors)
{
    const GpuConfig cfg = tinyNoSampling();
    MemorySystem mem(cfg);
    KernelStats st;
    std::array<uint64_t, 32> addrs{};
    for (int i = 0; i < 32; ++i)
        addrs[static_cast<size_t>(i)] =
            0x10000 + 4096ull * static_cast<uint64_t>(i);
    const auto res = mem.warpAccess(0, 0, {addrs.data(), 32},
                                    MemAccessKind::Load, st);
    EXPECT_EQ(res.sectors, 32);
}

TEST(MemorySystemTest, SecondAccessHitsL1)
{
    const GpuConfig cfg = tinyNoSampling();
    MemorySystem mem(cfg);
    KernelStats st;
    const std::array<uint64_t, 1> a = {0x2000};
    mem.warpAccess(0, 0, {a.data(), 1}, MemAccessKind::Load, st);
    EXPECT_EQ(st.l1Misses, 1u);
    mem.warpAccess(0, 5000, {a.data(), 1}, MemAccessKind::Load, st);
    EXPECT_EQ(st.l1Hits, 1u);
    EXPECT_EQ(st.l2Misses, 1u); // only the first went to L2
}

TEST(MemorySystemTest, OtherSmL1IsIndependentButL2Shared)
{
    const GpuConfig cfg = tinyNoSampling();
    MemorySystem mem(cfg);
    KernelStats st;
    const std::array<uint64_t, 1> a = {0x3000};
    mem.warpAccess(0, 0, {a.data(), 1}, MemAccessKind::Load, st);
    mem.warpAccess(1, 5000, {a.data(), 1}, MemAccessKind::Load, st);
    EXPECT_EQ(st.l1Misses, 2u); // both SMs miss their own L1
    EXPECT_EQ(st.l2Hits, 1u);   // but the second hits shared L2
}

TEST(MemorySystemTest, AtomicsBypassL1AndSerializeConflicts)
{
    const GpuConfig cfg = tinyNoSampling();
    MemorySystem mem(cfg);
    KernelStats st;
    std::array<uint64_t, 4> same = {0x4000, 0x4000, 0x4000, 0x4000};
    const auto res = mem.warpAccess(0, 0, {same.data(), 4},
                                    MemAccessKind::Atomic, st);
    EXPECT_EQ(st.l1Hits + st.l1Misses, 0u); // L1 untouched
    EXPECT_EQ(res.sectors, 1);

    std::array<uint64_t, 4> distinct = {0x5000, 0x5004, 0x5008,
                                        0x500c};
    const auto res2 = mem.warpAccess(0, 10000, {distinct.data(), 4},
                                     MemAccessKind::Atomic, st);
    // Conflicting lanes must cost more than conflict-free ones.
    EXPECT_GT(res.completion - 0, res2.completion - 10000);
}

TEST(MemorySystemTest, LsuCyclesCeilingDivideSectors)
{
    const GpuConfig cfg = tinyNoSampling();
    MemorySystem mem(cfg);
    KernelStats st;
    // Five 32 B sectors must occupy the LSU for ceil(5/4) = 2 cycles
    // (a truncating divide would charge only 1).
    std::array<uint64_t, 5> five{};
    for (int i = 0; i < 5; ++i)
        five[static_cast<size_t>(i)] =
            0x10000 + 32ull * static_cast<uint64_t>(i);
    const auto res = mem.warpAccess(0, 0, {five.data(), 5},
                                    MemAccessKind::Load, st);
    EXPECT_EQ(res.sectors, 5);
    EXPECT_EQ(res.lsuCycles, 2);
    // Four sectors fit in one LSU cycle.
    std::array<uint64_t, 4> four{};
    for (int i = 0; i < 4; ++i)
        four[static_cast<size_t>(i)] =
            0x20000 + 32ull * static_cast<uint64_t>(i);
    EXPECT_EQ(mem.warpAccess(0, 10000, {four.data(), 4},
                             MemAccessKind::Load, st)
                  .lsuCycles,
              1);
}

TEST(MemorySystemTest, ByteAdjacentAtomicLanesConflict)
{
    // Two lanes touching the same 4-byte word — even at different
    // byte addresses — serialize exactly like duplicate addresses;
    // lanes on different words proceed in parallel.
    const GpuConfig cfg = tinyNoSampling();
    MemorySystem mem(cfg);
    KernelStats st;
    std::array<uint64_t, 2> same_word = {0x7000, 0x7001};
    const auto conflicted = mem.warpAccess(0, 0, {same_word.data(), 2},
                                           MemAccessKind::Atomic, st);
    std::array<uint64_t, 2> distinct = {0x8000, 0x8004};
    const auto parallel =
        mem.warpAccess(0, 10000, {distinct.data(), 2},
                       MemAccessKind::Atomic, st);
    EXPECT_GT(conflicted.completion - 0,
              parallel.completion - 10000);
}

TEST(MemorySystemTest, L1BypassSkipsL1)
{
    GpuConfig cfg = tinyNoSampling();
    cfg.l1BypassLoads = true;
    MemorySystem mem(cfg);
    KernelStats st;
    const std::array<uint64_t, 1> a = {0x6000};
    mem.warpAccess(0, 0, {a.data(), 1}, MemAccessKind::Load, st);
    mem.warpAccess(0, 5000, {a.data(), 1}, MemAccessKind::Load, st);
    EXPECT_EQ(st.l1Hits + st.l1Misses, 0u);
    EXPECT_EQ(st.l2Hits, 1u);
}

TEST(Simulator, AluKernelCompletesWithIssuedCycles)
{
    GpuSimulator sim(tinyNoSampling());
    const KernelLaunch l = uniformLaunch(
        "alu", 2, 64, [](TraceBuilder &b) { b.aluChain(Op::INT, 20); });
    const KernelStats st = sim.run(l);
    EXPECT_GT(st.cycles, 0u);
    EXPECT_EQ(st.warpsSimulated, 4);
    // 4 warps x 21 instructions (chain + exit).
    EXPECT_EQ(st.warpInstrs, 4u * 21u);
    EXPECT_GT(st.stallCycles[static_cast<size_t>(
                  StallReason::Issued)], 0u);
    EXPECT_EQ(st.ctasSimulated, 2);
}

TEST(Simulator, DependentAluChainShowsExecDependency)
{
    GpuSimulator sim(tinyNoSampling());
    const KernelLaunch l = uniformLaunch(
        "dep", 1, 32, [](TraceBuilder &b) { b.aluChain(Op::INT, 50); });
    const KernelStats st = sim.run(l);
    EXPECT_GT(st.stallCycles[static_cast<size_t>(
                  StallReason::ExecutionDependency)], 0u);
}

TEST(Simulator, LoadChainShowsMemoryDependency)
{
    GpuSimulator sim(tinyNoSampling());
    const KernelLaunch l =
        uniformLaunch("mem", 1, 32, [](TraceBuilder &b) {
            std::array<uint64_t, 32> a{};
            for (int i = 0; i < 32; ++i)
                a[static_cast<size_t>(i)] =
                    0x100000ull + 4096ull * static_cast<uint64_t>(i);
            const Reg r = b.load({a.data(), 32});
            b.alu(Op::FP32, r); // depends on the load
        });
    const KernelStats st = sim.run(l);
    EXPECT_GT(st.stallCycles[static_cast<size_t>(
                  StallReason::MemoryDependency)], 0u);
    EXPECT_GT(st.l1Misses, 0u);
}

TEST(Simulator, BarrierShowsSynchronization)
{
    GpuSimulator sim(tinyNoSampling());
    // Two warps per CTA; warp 1 runs a long ALU chain before the
    // barrier so warp 0 must wait at it.
    KernelLaunch l;
    l.name = "bar";
    l.kind = KernelClass::Aux;
    l.dims.numCtas = 1;
    l.dims.threadsPerCta = 64;
    l.streamTrace = [](int64_t, int warp) -> WarpTraceStream {
        return [warp](TraceBuilder &b) {
            b.aluChain(Op::INT, warp == 1 ? 200 : 1);
            b.barrier();
            b.aluChain(Op::INT, 2);
            b.exit();
            return true;
        };
    };
    const KernelStats st = sim.run(l);
    EXPECT_GT(st.stallCycles[static_cast<size_t>(
                  StallReason::Synchronization)], 0u);
}

TEST(Simulator, AtomicDrainBlocksExit)
{
    GpuSimulator sim(tinyNoSampling());
    const KernelLaunch l =
        uniformLaunch("atom", 1, 32, [](TraceBuilder &b) {
            std::array<uint64_t, 32> a{};
            for (int i = 0; i < 32; ++i)
                a[static_cast<size_t>(i)] = 0x200000ull;
            const Reg v = b.alu(Op::FP32);
            b.atomic({a.data(), 32}, v);
        });
    const KernelStats st = sim.run(l);
    EXPECT_GT(st.stallCycles[static_cast<size_t>(
                  StallReason::Synchronization)], 0u);
}

TEST(Simulator, ColdStartShowsInstructionFetch)
{
    GpuSimulator sim(tinyNoSampling());
    const KernelLaunch l = uniformLaunch(
        "tiny", 1, 32, [](TraceBuilder &b) { b.aluChain(Op::INT, 2); });
    const KernelStats st = sim.run(l);
    // A 3-instruction kernel is dominated by the cold i-fetch.
    EXPECT_GT(st.stallShare(StallReason::InstructionFetch), 0.3);
}

TEST(Simulator, OccupancyBucketsSumToSchedulerSlots)
{
    GpuSimulator sim(tinyNoSampling());
    const KernelLaunch l = uniformLaunch(
        "occ", 4, 128, [](TraceBuilder &b) {
            b.aluChain(Op::FP32, 30);
        });
    const KernelStats st = sim.run(l);
    uint64_t total = 0;
    for (uint64_t v : st.occCycles)
        total += v;
    EXPECT_EQ(total, st.schedulerSlots);
}

TEST(Simulator, PartialWarpsBucketToW8)
{
    GpuSimulator sim(tinyNoSampling());
    const KernelLaunch l = uniformLaunch(
        "narrow", 2, 32, [](TraceBuilder &b) {
            b.aluChain(Op::FP32, 20, maskOfLanes(4));
        });
    const KernelStats st = sim.run(l);
    // The 4-lane ALU chain buckets to W8; only the full-mask EXIT
    // instructions land in W32.
    EXPECT_GT(st.occCycles[static_cast<size_t>(OccBucket::W8)], 0u);
    EXPECT_GT(st.occCycles[static_cast<size_t>(OccBucket::W8)],
              st.occCycles[static_cast<size_t>(OccBucket::W32)]);
}

TEST(Simulator, LrrAndGtoBothComplete)
{
    for (const SchedulerPolicy pol :
         {SchedulerPolicy::Gto, SchedulerPolicy::Lrr}) {
        GpuConfig cfg = tinyNoSampling();
        cfg.scheduler = pol;
        GpuSimulator sim(cfg);
        const KernelLaunch l = uniformLaunch(
            "sched", 4, 128,
            [](TraceBuilder &b) { b.aluChain(Op::INT, 40); });
        const KernelStats st = sim.run(l);
        EXPECT_EQ(st.warpInstrs, 16u * 41u) << "policy failed";
    }
}

TEST(Simulator, SmSubsetSamplingReducesSimulatedCtas)
{
    GpuConfig cfg = GpuConfig::testTiny();
    cfg.smSampleFactor = 4;
    GpuSimulator sim(cfg);
    const KernelLaunch l = uniformLaunch(
        "sampled", 40, 32,
        [](TraceBuilder &b) { b.aluChain(Op::INT, 5); });
    const KernelStats st = sim.run(l);
    EXPECT_EQ(st.ctasTotal, 40);
    EXPECT_EQ(st.ctasExpected, 10);
    EXPECT_EQ(st.ctasSimulated, 10);
}

TEST(Simulator, MaxCtasCapLimitsSimulatedCtas)
{
    GpuConfig cfg = tinyNoSampling();
    GpuSimulator sim(cfg);
    SimOptions opts;
    opts.maxCtas = 4;
    const KernelLaunch l = uniformLaunch(
        "capped", 16, 32,
        [](TraceBuilder &b) { b.aluChain(Op::INT, 5); });
    const KernelStats st = sim.run(l, opts);
    EXPECT_EQ(st.ctasSimulated, 4);
    EXPECT_EQ(st.ctasExpected, 16);
}

TEST(Simulator, StatSetExportHasKeyMetrics)
{
    GpuSimulator sim(tinyNoSampling());
    const KernelLaunch l = uniformLaunch(
        "export", 1, 32, [](TraceBuilder &b) { b.aluChain(Op::INT, 5); });
    const StatSet s = sim.run(l).toStatSet();
    EXPECT_TRUE(s.has("cycles"));
    EXPECT_TRUE(s.has("stall_MemoryDependency"));
    EXPECT_TRUE(s.has("occ_W32"));
    EXPECT_TRUE(s.has("l1_hit_rate"));
    EXPECT_TRUE(s.has("instr_INT"));
}

TEST(KernelStatsTest, SharesSumToOne)
{
    GpuSimulator sim(tinyNoSampling());
    const KernelLaunch l =
        uniformLaunch("shares", 2, 64, [](TraceBuilder &b) {
            std::array<uint64_t, 8> a{};
            for (int i = 0; i < 8; ++i)
                a[static_cast<size_t>(i)] =
                    0x300000ull + 64ull * static_cast<uint64_t>(i);
            const Reg r = b.load({a.data(), 8});
            b.alu(Op::FP32, r);
            b.aluChain(Op::INT, 3);
        });
    const KernelStats st = sim.run(l);
    double stall_total = 0, occ_total = 0, instr_total = 0;
    for (int r = 0; r < kNumStallReasons; ++r)
        stall_total += st.stallShare(static_cast<StallReason>(r));
    for (int b = 0; b < kNumOccBuckets; ++b)
        occ_total += st.occShare(static_cast<OccBucket>(b));
    for (int c = 0; c < kNumInstrClasses; ++c)
        instr_total += st.instrShare(static_cast<InstrClass>(c));
    EXPECT_NEAR(stall_total, 1.0, 1e-9);
    EXPECT_NEAR(occ_total, 1.0, 1e-9);
    EXPECT_NEAR(instr_total, 1.0, 1e-9);
}

TEST(Simulator, MshrBackPressureShowsMshrFullStalls)
{
    GpuConfig cfg = tinyNoSampling();
    cfg.l1Mshr = {1, 1, 1}; // one in-flight L1 miss blocks the next
    GpuSimulator sim(cfg);
    const KernelLaunch l =
        uniformLaunch("mshr", 4, 128, [](TraceBuilder &b) {
            std::array<uint64_t, 32> a{};
            for (int rep = 0; rep < 4; ++rep) {
                for (int i = 0; i < 32; ++i)
                    a[static_cast<size_t>(i)] =
                        0x100000ull +
                        4096ull *
                            static_cast<uint64_t>(rep * 32 + i);
                const Reg r = b.load({a.data(), 32});
                b.alu(Op::FP32, r);
            }
        });
    const KernelStats st = sim.run(l);
    EXPECT_GT(st.stallCycles[static_cast<size_t>(
                  StallReason::MshrFull)],
              0u);
    const StatSet s = st.toStatSet();
    EXPECT_GT(s.get("mshr_stall_cycles"), 0.0);
    EXPECT_GT(s.get("dram_row_hits") + s.get("dram_row_misses"), 0.0);
}

TEST(Simulator, DramSchedulerPolicyChangesTiming)
{
    auto run = [](DramSchedPolicy pol) {
        GpuConfig cfg = GpuConfig::testTiny();
        cfg.smSampleFactor = 1;
        cfg.dram.scheduler = pol;
        GpuSimulator sim(cfg);
        // Warps interleave two row regions of the same banks so the
        // in-order schedule keeps ping-ponging rows while FR-FCFS
        // can batch same-row sectors.
        const KernelLaunch l =
            uniformLaunch("sched", 4, 128, [](TraceBuilder &b) {
                std::array<uint64_t, 32> a{};
                for (int rep = 0; rep < 3; ++rep) {
                    for (int i = 0; i < 32; ++i)
                        a[static_cast<size_t>(i)] =
                            0x100000ull +
                            32ull * static_cast<uint64_t>(i) +
                            (i % 2 ? 0x40000ull : 0) +
                            0x1000ull * static_cast<uint64_t>(rep);
                    const Reg r = b.load({a.data(), 32});
                    b.alu(Op::FP32, r);
                }
            });
        return sim.run(l);
    };
    const KernelStats fr = run(DramSchedPolicy::Frfcfs);
    const KernelStats fc = run(DramSchedPolicy::Fcfs);
    EXPECT_GT(fr.dramRowHits + fr.dramRowMisses, 0u);
    // The scheduling policy must actually change the outcome.
    EXPECT_TRUE(fr.cycles != fc.cycles ||
                fr.dramRowHits != fc.dramRowHits)
        << "FR-FCFS and FCFS produced identical runs";
}

TEST(GpuConfigTest, SectorMismatchBetweenL1AndL2Dies)
{
    GpuConfig cfg = GpuConfig::testTiny();
    cfg.l1d.sectorBytes = 16; // L2 stays at 32
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "");
}

TEST(GpuConfigTest, ValidateRejectsBadDramGeometry)
{
    GpuConfig cfg = GpuConfig::testTiny();
    cfg.dram.numBanks = 3; // not a power of two
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "");
    cfg = GpuConfig::testTiny();
    cfg.dram.rowBytes = 16; // smaller than the 32 B sector
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "");
    cfg = GpuConfig::testTiny();
    cfg.dram.schedQueueSize = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "");
}

TEST(GpuConfigTest, ValidateRejectsBadGeometry)
{
    GpuConfig cfg = GpuConfig::testTiny();
    // 1536 B / (128 B x 4 ways) = 3 sets: not a power of two.
    cfg.l1d.sizeBytes = 1536;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "");
}

TEST(GpuConfigTest, DefaultsAreValid)
{
    GpuConfig::v100Sim().validate();
    GpuConfig::testTiny().validate();
    SUCCEED();
}
