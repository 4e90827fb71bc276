/**
 * @file
 * Unit tests for the MasterCore: restart semantics, write-delta
 * tracking, checkpoint snapshots, fork-interval policy, indirect-
 * target translation and the delta sweep.
 *
 * CheckpointModel.AgreesWithFullCopy checks the shared-base
 * checkpoints against a full copy of the master's delta at every
 * spawn. It runs 25 random seeds by default; the full gate is
 *   MSSP_FUZZ_ITERS=500 ./test_master
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "asm/assembler.hh"
#include "core/pipeline.hh"
#include "mssp/master.hh"
#include "profile/profiler.hh"
#include "sim/rng.hh"

namespace mssp
{
namespace
{

unsigned
fuzzIters()
{
    const char *env = std::getenv("MSSP_FUZZ_ITERS");
    if (env && *env) {
        int n = std::atoi(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 25;
}

/** Build a distilled program with explicit fork sites. */
DistilledProgram
distillWith(const Program &prog, std::vector<uint32_t> sites,
            DistillerOptions opts = {})
{
    ProfileData prof = profileProgram(prog, 1000000);
    opts.explicitForkSites = std::move(sites);
    return distill(prog, prof, opts);
}

const char *kLoop =
    "    li t0, 50\n"
    "    li s0, 0\n"
    "loop:\n"
    "    add s0, s0, t0\n"
    "    addi t0, t0, -1\n"
    "    bnez t0, loop\n"
    "    out s0, 1\n"
    "    halt\n";

TEST(Master, RestartOnlyAtEntryMapPcs)
{
    Program prog = assemble(kLoop);
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});

    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);

    EXPECT_FALSE(master.running());
    EXPECT_TRUE(master.restart(prog.entry()));
    EXPECT_TRUE(master.running());
    EXPECT_TRUE(master.restart(loop_pc));
    EXPECT_FALSE(master.restart(loop_pc + 1));   // not a restart point
}

TEST(Master, RestartSeedsRegistersFromArch)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    arch.writeReg(reg::S5, 777);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));
    EXPECT_EQ(master.readReg(reg::S5), 777u);
    EXPECT_EQ(master.deltaSize(), 0u);
}

TEST(Master, FirstForkSpawnsAtRestartPc)
{
    Program prog = assemble(kLoop);
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});

    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    // The restart point is the block's FORK; it must spawn at once.
    EXPECT_TRUE(master.nextForkWouldSpawn());
    MasterCore::ForkInfo fi;
    EXPECT_EQ(master.step(&fi), MasterStep::WantsFork);
    EXPECT_EQ(fi.origPc, prog.entry());
    EXPECT_TRUE(fi.checkpoint.empty());   // no writes yet
}

TEST(Master, WritesAccumulateInDelta)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    MasterCore::ForkInfo fi;
    master.step(&fi);   // entry FORK
    // Execute a few instructions; registers t0/s0 get written.
    for (int i = 0; i < 5; ++i)
        master.step(&fi);
    EXPECT_GT(master.deltaSize(), 0u);
    EXPECT_TRUE(master.readMem(0x12345) == arch.readMem(0x12345))
        << "unwritten memory reads through to arch";
}

TEST(Master, CheckpointIsSnapshotNotAlias)
{
    // Each iteration rewrites s0, stores it to one fixed cell and to a
    // fresh cell, so the delta grows by a cell per spawn and the
    // master re-bases its shared checkpoint several times.
    Program prog = assemble(
        "    li t0, 120\n"
        "    li t1, 0x4000\n"
        "loop:\n"
        "    addi s0, s0, 5\n"
        "    sw s0, 0(t1)\n"
        "    sw s0, 0x3000(zero)\n"
        "    addi t1, t1, 1\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    out s0, 1\n"      // keep s0 live so DCE preserves it
        "    halt\n");
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});

    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    // Collect every checkpoint the master produces, with the flat
    // state it described at fork time.
    std::vector<Checkpoint> checkpoints;
    std::vector<StateDelta> at_fork;
    MasterCore::ForkInfo fi;
    while (master.running()) {
        if (master.step(&fi) == MasterStep::WantsFork) {
            EXPECT_EQ(fi.checkpoint.size(), master.deltaSize());
            checkpoints.push_back(fi.checkpoint);
            at_fork.push_back(fi.checkpoint.flatten());
        }
    }
    // Entry fork + one fork per loop iteration.
    ASSERT_GE(checkpoints.size(), 100u);

    // Successive snapshots must hold *different* s0 values, in the
    // register and in the fixed memory cell: each is a copy taken at
    // fork time, not an alias of the live delta.
    const CellId fixed = makeMemCell(0x3000);
    auto s0_a = checkpoints[checkpoints.size() - 2].get(
        makeRegCell(reg::S0));
    auto s0_b = checkpoints.back().get(makeRegCell(reg::S0));
    ASSERT_TRUE(s0_a.has_value());
    ASSERT_TRUE(s0_b.has_value());
    EXPECT_NE(*s0_a, *s0_b);
    for (size_t i = 3; i < checkpoints.size(); ++i) {
        auto prev = checkpoints[i - 1].get(fixed);
        auto cur = checkpoints[i].get(fixed);
        ASSERT_TRUE(prev && cur) << "spawn " << i;
        EXPECT_EQ(*cur, *prev + 5) << "spawn " << i;
    }

    // Later writes and re-bases leave every earlier snapshot as it
    // was, and the run crossed more than one shared base.
    size_t bases = 0;
    const StateDelta *last_base = nullptr;
    for (size_t i = 0; i < checkpoints.size(); ++i) {
        EXPECT_EQ(checkpoints[i].flatten(), at_fork[i]) << "spawn " << i;
        EXPECT_EQ(checkpoints[i].size(), at_fork[i].size());
        const StateDelta *base = checkpoints[i].base().get();
        if (base && base != last_base)
            ++bases;
        last_base = base;
    }
    EXPECT_GE(bases, 2u);
}

TEST(Master, ForkIntervalMergesTasks)
{
    Program prog = assemble(kLoop);
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});

    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    master.setForkInterval(3);
    ASSERT_TRUE(master.restart(prog.entry()));

    // Count spawns until the master halts.
    unsigned spawns = 0;
    MasterCore::ForkInfo fi;
    std::vector<uint32_t> end_visits;
    while (master.running()) {
        if (master.step(&fi) == MasterStep::WantsFork) {
            ++spawns;
            end_visits.push_back(fi.endVisitsForPrev);
        }
    }
    EXPECT_TRUE(master.halted());
    // 50 loop-header visits at interval 3 plus the entry fork.
    EXPECT_NEAR(static_cast<double>(spawns), 1.0 + 50.0 / 3.0, 2.0);
    // Steady-state spawns report 3 end-visits for their predecessor.
    ASSERT_GT(end_visits.size(), 3u);
    EXPECT_EQ(end_visits[2], 3u);
}

TEST(Master, JalrThroughOriginalAddressTranslates)
{
    // A function whose return address is *seeded from architected
    // state* (restart inside the callee): ret must translate.
    Program prog = assemble(
        "    li s0, 5\n"
        "loop:\n"
        "    call fn\n"
        "    addi s0, s0, -1\n"
        "    bnez s0, loop\n"
        "    out a0, 1\n"
        "    halt\n"
        "fn:\n"
        "    addi a0, a0, 1\n"
        "    ret\n");
    uint32_t fnloop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("fn", fnloop_pc));
    DistilledProgram dist = distillWith(prog, {fnloop_pc});
    ASSERT_NE(dist.distilledPcFor(fnloop_pc), UINT32_MAX);

    ArchState arch;
    arch.loadProgram(prog);
    // Simulate a commit that left pc at fnloop with the *original*
    // return address in ra.
    uint32_t ret_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", ret_pc));
    arch.writeReg(reg::Ra, ret_pc + 1);   // original return point
    arch.writeReg(reg::S0, 3);
    arch.setPc(fnloop_pc);

    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(fnloop_pc));
    // Run; the master must survive the ret (translated) and halt.
    MasterCore::ForkInfo fi;
    for (int i = 0; i < 200 && master.running(); ++i)
        master.step(&fi);
    EXPECT_TRUE(master.halted());
    EXPECT_FALSE(master.faulted());
}

TEST(Master, JalrToUnmappedAddressFaults)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    arch.writeReg(reg::Ra, 0xdead);   // not a block leader
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));
    // Inject a ret at the master's pc by corrupting the image.
    DistilledProgram corrupt = dist;
    corrupt.prog.setWord(dist.prog.entry(),
                         encode(makeI(Opcode::Jalr, 0, reg::Ra, 0)));
    MasterCore master2(corrupt, arch);
    ASSERT_TRUE(master2.restart(prog.entry()));
    MasterCore::ForkInfo fi;
    EXPECT_EQ(master2.step(&fi), MasterStep::Faulted);
    EXPECT_TRUE(master2.faulted());
}

TEST(Master, SweepDropsArchEqualCells)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    master.writeMem(0x9000, 42);
    master.writeMem(0x9001, 43);
    EXPECT_EQ(master.deltaSize(), 2u);

    // Arch catches up on one cell.
    arch.writeMem(0x9000, 42);
    master.sweepDeltaAgainstArch(0);   // force a sweep
    EXPECT_EQ(master.deltaSize(), 1u);
    EXPECT_EQ(master.readMem(0x9001), 43u);
}

TEST(Master, CorruptForkIndexFaults)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    DistilledProgram corrupt = dist;
    corrupt.prog.setWord(dist.prog.entry(),
                         encode(makeJ(Opcode::Fork, 0, 999)));
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(corrupt, arch);
    ASSERT_TRUE(master.restart(prog.entry()));
    MasterCore::ForkInfo fi;
    EXPECT_EQ(master.step(&fi), MasterStep::Faulted);
}

/**
 * Reference model of a checkpoint: the master's write-delta kept as a
 * full copy (buffered memory writes plus dirty registers), which is
 * what every snapshot used to copy whole.
 */
struct FullCopyModel
{
    std::map<uint32_t, uint32_t> mem;
    std::array<uint32_t, NumRegs> regs{};
    uint32_t dirty = 0;

    void
    restart(const ArchState &arch)
    {
        mem.clear();
        for (unsigned r = 0; r < NumRegs; ++r)
            regs[r] = arch.readReg(r);
        dirty = 0;
    }

    size_t
    size() const
    {
        return mem.size() +
               static_cast<size_t>(__builtin_popcount(dirty));
    }

    StateDelta
    flat() const
    {
        StateDelta d;
        for (const auto &[addr, value] : mem)
            d.set(makeMemCell(addr), value);
        for (unsigned r = 0; r < NumRegs; ++r) {
            if (dirty & (1u << r))
                d.set(makeRegCell(r), regs[r]);
        }
        return d;
    }

    void
    sweep(const ArchState &arch, size_t max_cells)
    {
        if (size() <= max_cells)
            return;
        for (unsigned r = 0; r < NumRegs; ++r) {
            if ((dirty & (1u << r)) && arch.readReg(r) == regs[r])
                dirty &= ~(1u << r);
        }
        for (auto it = mem.begin(); it != mem.end();) {
            if (arch.readMem(it->first) == it->second)
                it = mem.erase(it);
            else
                ++it;
        }
    }
};

// Random master writes, register corruptions, commits into
// architected state, sweeps (with a small checkpointSweepCells),
// restarts and spawns: every snapshot must describe exactly the full
// copy, and keep describing it after later writes and re-bases.
TEST(CheckpointModel, AgreesWithFullCopy)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    const uint32_t mem_base = 0x8000;

    for (unsigned iter = 0; iter < fuzzIters(); ++iter) {
        SCOPED_TRACE(testing::Message() << "iter " << iter);
        Rng rng(Rng::mix(0xc4ec7u, iter));
        ArchState arch;
        arch.loadProgram(prog);
        MasterCore master(dist, arch);
        ASSERT_TRUE(master.restart(prog.entry()));
        FullCopyModel model;
        model.restart(arch);

        // A small universe forces overwrites, sweeps that empty it and
        // tombstone reuse; a large one grows deltas past a re-base.
        auto span = static_cast<uint32_t>(rng.chance(0.5) ? 48 : 3000);
        size_t sweep_cells = 1 + rng.below(96);
        auto addr = [&] {
            return mem_base + static_cast<uint32_t>(rng.below(span));
        };
        std::vector<std::pair<Checkpoint, StateDelta>> kept;
        Checkpoint ckpt;

        for (int op = 0; op < 3000; ++op) {
            switch (rng.below(20)) {
              case 0: case 1: case 2: case 3: case 4: case 5: case 6: {
                uint32_t a = addr();
                auto v = static_cast<uint32_t>(rng.next());
                master.writeMem(a, v);
                model.mem[a] = v;
                break;
              }
              case 7: case 8: {
                auto r = static_cast<unsigned>(1 + rng.below(NumRegs - 1));
                auto v = static_cast<uint32_t>(rng.below(4));
                master.writeReg(r, v);
                model.regs[r] = v;
                model.dirty |= 1u << r;
                break;
              }
              case 9: {
                auto r = static_cast<unsigned>(rng.below(NumRegs + 2));
                auto mask = static_cast<uint32_t>(1 + rng.below(255));
                master.corruptReg(r, mask);
                if (r != 0 && r < NumRegs) {
                    model.regs[r] ^= mask;
                    model.dirty |= 1u << r;
                }
                break;
              }
              case 10: case 11: {
                // A commit: architected state catches up with (or
                // diverges from) the master's value.
                uint32_t a = addr();
                arch.writeMem(a, rng.chance(0.7)
                                     ? master.readMem(a)
                                     : static_cast<uint32_t>(rng.next()));
                auto r = static_cast<unsigned>(1 + rng.below(NumRegs - 1));
                arch.writeReg(r, rng.chance(0.7)
                                     ? master.readReg(r)
                                     : static_cast<uint32_t>(rng.below(4)));
                break;
              }
              case 12: case 13:
                master.sweepDeltaAgainstArch(sweep_cells);
                model.sweep(arch, sweep_cells);
                break;
              case 14:
                if (rng.chance(0.1)) {
                    ASSERT_TRUE(master.restart(prog.entry()));
                    model.restart(arch);
                }
                break;
              default: {
                master.snapshotCheckpoint(ckpt);
                StateDelta want = model.flat();
                ASSERT_EQ(ckpt.size(), want.size()) << "op " << op;
                ASSERT_EQ(master.deltaSize(), want.size());
                ASSERT_EQ(ckpt.flatten(), want) << "op " << op;
                for (int k = 0; k < 8; ++k) {
                    CellId cell = rng.chance(0.5)
                        ? makeMemCell(addr())
                        : makeRegCell(static_cast<unsigned>(
                              rng.below(NumRegs)));
                    ASSERT_EQ(ckpt.get(cell), want.get(cell))
                        << cellToString(cell) << " at op " << op;
                }
                if (rng.chance(0.1))
                    kept.emplace_back(ckpt, std::move(want));
                break;
              }
            }
        }
        for (const auto &[old, want] : kept) {
            ASSERT_EQ(old.size(), want.size());
            ASSERT_EQ(old.flatten(), want);
        }
    }
}

// Few stores between spawns: a spawn copies the cells written since
// the shared base, not the whole delta (the re-base amortizes).
TEST(Master, SpawnCopiesOnlyChangedCells)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));
    for (uint32_t i = 0; i < 1000; ++i)
        master.writeMem(0x8000 + i, i + 1);

    Checkpoint ckpt;
    master.snapshotCheckpoint(ckpt);
    uint64_t copied_before = master.checkpointCellsCopied();
    Rng rng(7);
    const unsigned spawns = 600;
    for (unsigned s = 0; s < spawns; ++s) {
        for (int k = 0; k < 2; ++k) {
            master.writeMem(0x8000 + static_cast<uint32_t>(rng.below(1200)),
                            s);
        }
        master.writeReg(reg::S0, s);
        master.snapshotCheckpoint(ckpt);
    }
    double per_spawn =
        static_cast<double>(master.checkpointCellsCopied() -
                            copied_before) / spawns;
    EXPECT_LE(per_spawn, static_cast<double>(master.deltaSize()) / 8.0);
    EXPECT_GT(per_spawn, 0.0);
}

} // anonymous namespace
} // namespace mssp
