/**
 * @file
 * The block compiler and its threaded (computed-goto) backend.  See
 * blockc.hh for the tier's contract; the executor here mirrors
 * exec.cc's runFused chain for chain -- the same hoisted locals, the
 * same spill/reload discipline, the same per-chain cycle charges and
 * counter updates -- and the equivalence tests (test_blockc) guard
 * the duplication.
 */

#include "core/blockc.hh"

#include "core/transputer.hh"
#include "isa/cycles.hh"
#include "isa/predecode.hh"

namespace transputer::core::blockc
{

using isa::Fn;
using isa::Op;
using isa::superop::Kind;

namespace
{

/** Signed range check for a host-width intermediate result. */
bool
overflows(const WordShape &s, int64_t v)
{
    return v > s.toSigned(s.mostPos) || v < s.toSigned(s.mostNeg);
}

/** Add a write-generation block to a guard set; false when full. */
bool
noteGuard(std::array<uint32_t, Superblock::kMaxGuards> &set,
          size_t &n, uint32_t gidx)
{
    for (size_t i = 0; i < n; ++i)
        if (set[i] == gidx)
            return true;
    if (n == Superblock::kMaxGuards)
        return false;
    set[n++] = gidx;
    return true;
}

/**
 * Worst-case cycle charge of one chain used as a non-final member of
 * a fused group (prefixes + base cost + worst data-access waits).
 * Fused groups are restricted to on-chip code, so there is no fetch
 * charge.  Only the kinds the fusion rules admit appear here.
 */
int
chainWorstCost(Kind k, const isa::Predecoded &d, int external_waits)
{
    int c = d.pfixes + d.nfixes;
    switch (k) {
      case Kind::Ldc:
      case Kind::Ldlp:
      case Kind::Adc:
        return c + 1;
      case Kind::Ldl:
        return c + 2 + external_waits;
      case Kind::Cj:
        return c + 4; // worst of taken (4) and not-taken (2)
      default:
        return c + 8 + external_waits; // unreachable; conservative
    }
}

} // namespace

// ---------------------------------------------------------------------
// compiler
// ---------------------------------------------------------------------

Superblock *
BlockCache::compile(mem::Memory &mem, const uint32_t *gens,
                    size_t icache_mask, const WordShape &s,
                    int external_waits, Word entry)
{
    std::array<isa::Predecoded, kMaxSteps> dec;
    std::array<Word, kMaxSteps> tags;
    std::array<Kind, kMaxSteps> solo;
    std::array<uint32_t, Superblock::kMaxGuards> guard_set;
    size_t nguards = 0;
    size_t n = 0;
    bool loops = false;

    // Walk the static instruction stream from the entry, predecoding
    // chain by chain, following CALLs (static target) and CJ/OPR
    // fall-throughs, until something ends the block: a jump (J ends
    // it whether or not it is the back-edge), a dynamic-target
    // operation (ret/gcall), a non-fast or undefined chain, a revisit
    // (joins would replay earlier steps out of order), a full guard
    // set, or the step limit.
    Word ip = entry;
    while (n < kMaxSteps) {
        bool seen = false;
        for (size_t j = 0; j < n && !seen; ++j)
            seen = tags[j] == ip;
        if (seen)
            break;
        uint8_t buf[isa::maxChainBytes];
        size_t m = 0;
        while (m < isa::maxChainBytes &&
               mem.contains(s.truncate(ip + m))) {
            buf[m] = mem.readByte(s.truncate(ip + m));
            ++m;
        }
        const isa::Predecoded d = isa::predecode(buf, m, s);
        const Kind k = isa::superop::classify(d);
        if (k == Kind::kCount)
            break;
        const Word last =
            s.truncate(ip + static_cast<Word>(d.length - 1));
        const auto g1 = static_cast<uint32_t>(mem.blockIndex(ip));
        const auto g2 = static_cast<uint32_t>(mem.blockIndex(last));
        if (!noteGuard(guard_set, nguards, g1) ||
            !noteGuard(guard_set, nguards, g2))
            break;
        tags[n] = ip;
        dec[n] = d;
        solo[n] = k;
        ++n;
        const Word next = s.truncate(ip + d.length);
        if (k == Kind::J) {
            loops = s.truncate(next + d.operand) == entry;
            break;
        }
        if (k == Kind::Call) {
            const Word target = s.truncate(next + d.operand);
            if (target == entry) {
                loops = true;
                break;
            }
            ip = target;
            continue;
        }
        if (k == Kind::OpGeneric) {
            const Op op = static_cast<Op>(d.operand);
            if (op == Op::RET || op == Op::GCALL)
                break; // dynamic target: always the last step
        }
        ip = next;
    }
    if (n < kMinSteps)
        return nullptr; // negatively cached via the saturated heat slot

    Superblock &sb = blocks_[blockIndex(entry)];
    sb.valid = false;
    sb.entry = entry;
    sb.loops = loops;
    sb.nsteps = static_cast<uint16_t>(n);
    sb.primed = false;
    sb.missFence = 0;
    sb.visited = 0;
    sb.visitFence = 0;
    sb.steps.assign(n, Step{});
    sb.nguards = static_cast<uint8_t>(nguards);
    for (size_t i = 0; i < nguards; ++i)
        sb.guards[i] = {guard_set[i], gens[guard_set[i]]};

    for (size_t i = 0; i < n; ++i) {
        Step &st = sb.steps[i];
        const isa::Predecoded &d = dec[i];
        const Word tag = tags[i];
        const Word last =
            s.truncate(tag + static_cast<Word>(d.length - 1));
        st.tag = tag;
        st.next = s.truncate(tag + d.length);
        st.operand = d.operand;
        st.sop = s.toSigned(d.operand);
        st.slot = static_cast<uint32_t>(tag) &
                  static_cast<uint32_t>(icache_mask);
        st.gidx = static_cast<uint32_t>(mem.blockIndex(tag));
        st.gidx2 = static_cast<uint32_t>(mem.blockIndex(last));
        st.gen = gens[st.gidx];
        st.gen2 = gens[st.gidx2];
        st.length = d.length;
        st.pfixes = d.pfixes;
        st.nfixes = d.nfixes;
        st.fn = static_cast<uint8_t>(d.fn);
        st.flags = d.flags;
        st.offChip = !mem.isOnChip(tag) || !mem.isOnChip(last);
        st.kind = solo[i];
        st.solo = solo[i];
    }

    // priming needs every step resident in its own cache slot at
    // once, which aliasing step pairs can never achieve
    sb.primeable = true;
    for (size_t i = 0; i < n && sb.primeable; ++i)
        for (size_t j = i + 1; j < n; ++j)
            if (sb.steps[i].slot == sb.steps[j].slot) {
                sb.primeable = false;
                break;
            }

    // fusion pass: longest peephole match wins; the head step carries
    // the fused kind, members keep their solo kinds for fallback
    size_t i = 0;
    while (i < n) {
        bool backedge = false;
        if (solo[i] == Kind::Cj && i + 1 < n && solo[i + 1] == Kind::J)
            backedge = s.truncate(sb.steps[i + 1].next +
                                  dec[i + 1].operand) == entry;
        const Kind k = isa::superop::fuse(dec.data(), solo.data(), i,
                                          n, backedge);
        const int span = isa::superop::chainsOf(k);
        if (span > 1) {
            bool ok = true;
            for (int j = 0; j < span; ++j)
                ok = ok && !sb.steps[i + j].offChip;
            Word aux = 0;
            if (k == Kind::LdcAdcStl) {
                // fold the constant now; a folding that would set the
                // error flag stays unfused so the solo path reports it
                const int64_t r = s.toSigned(dec[i].operand) +
                                  s.toSigned(dec[i + 1].operand);
                if (overflows(s, r))
                    ok = false;
                else
                    aux = s.truncate(static_cast<uint64_t>(r));
            }
            int pre = 0;
            for (int j = 0; j + 1 < span; ++j)
                pre += chainWorstCost(solo[i + j], dec[i + j],
                                      external_waits);
            if (pre > 255)
                ok = false;
            if (ok) {
                sb.steps[i].kind = k;
                sb.steps[i].aux = aux;
                sb.steps[i].groupPreCost = static_cast<uint8_t>(pre);
                i += static_cast<size_t>(span);
                continue;
            }
        }
        ++i;
    }

    // cumulative retire accounting (see Superblock::cum)
    sb.cum.assign(n + 1, {});
    for (size_t k = 0; k < n; ++k) {
        Superblock::CumRow row = sb.cum[k];
        row.fn[sb.steps[k].fn] += 1;
        row.fn[static_cast<size_t>(Fn::PFIX)] += sb.steps[k].pfixes;
        row.fn[static_cast<size_t>(Fn::NFIX)] += sb.steps[k].nfixes;
        row.len += sb.steps[k].length;
        sb.cum[k + 1] = row;
    }

    sb.valid = true;
    ++stats_.compiles;
    stats_.steps += n;
    return &sb;
}

// ---------------------------------------------------------------------
// threaded backend
// ---------------------------------------------------------------------

#if defined(__GNUC__)

int
ThreadedBackend::run(Transputer &cpu, Superblock &sb, Tick bound,
                     int budget, Deopt &why)
{
    if (sb.primed && sb.missFence == cpu.icache_.misses())
        return exec<true>(cpu, sb, bound, budget, why);
    sb.primed = false; // a foreign fill may have displaced a slot
    return exec<false>(cpu, sb, bound, budget, why);
}

/**
 * The step interpreter.  Primed=true is the steady state: every
 * step's slot provably holds its chain (entry protocol in run()), so
 * the per-chain cache emulation reduces to banking a hit, and stores
 * re-check the block's guard generations instead.  Primed=false
 * emulates the cache lookup per chain exactly as PredecodeCache does,
 * accumulating the visited mask that upgrades the block.
 */
template <bool Primed>
int
ThreadedBackend::exec(Transputer &cpu, Superblock &sb, Tick bound,
                      int budget, Deopt &why)
{
    static const void *tbl[] = {
        &&L_J,      &&L_Ldlp,   &&L_Ldnl,   &&L_Ldc,   &&L_Ldnlp,
        &&L_Ldl,    &&L_Adc,    &&L_Call,   &&L_Cj,    &&L_Ajw,
        &&L_Eqc,    &&L_Stl,    &&L_Stnl,   &&L_OpAdd, &&L_OpSub,
        &&L_OpDiff, &&L_OpSum,  &&L_OpGt,   &&L_OpRev, &&L_OpWsub,
        &&L_OpBsub, &&L_OpAnd,  &&L_OpOr,   &&L_OpXor, &&L_OpNot,
        &&L_OpMint, &&L_OpDup,  &&L_OpLdpi, &&L_OpGeneric,
        &&L_LdcStl, &&L_LdlpStl, &&L_LdlStl, &&L_AdcStl,
        &&L_LdcAdcStl, &&L_LdlAdcStl, &&L_LdlLdlBinop, &&L_CjLoop,
    };
    static_assert(sizeof(tbl) / sizeof(tbl[0]) ==
                      isa::superop::kKinds,
                  "dispatch table must cover every superop kind");

    // no compiled instruction is interruptible (predecode's kFast
    // classification excludes them all)
    cpu.lastInstrInterruptible_ = false;
    cpu.inExec_ = true;
    const Tick period = cpu.cfg_.cyclePeriod;
    const WordShape s = cpu.shape_;
    Word iptr = cpu.iptr_, a = cpu.areg_, b = cpu.breg_,
         c = cpu.creg_, wp = cpu.wptr_;
    Tick t = cpu.time_, lis = cpu.lastInstrStart_;
    uint64_t cyc = cpu.cycles_, icount = cpu.instructions_;
    bool err = cpu.errorFlag_;
    bool halt_on_err = cpu.haltOnError_;
    const uint64_t cyc0 = cyc, icount0 = icount;
    int n = 0;
    // The current linear sweep of retired steps is [sweep0, ri);
    // its function counts and instruction bytes live only in the
    // compile-time cum rows until flushSweep folds the row
    // difference into the architectural counters.  flushSweep runs
    // inside spill() (every exit and every mid-block call into the
    // core spills first) and at every back-edge that restarts the
    // walk at step 0, where ri would move backwards.
    size_t ri = 0, sweep0 = 0;
    const Superblock::CumRow *const cum = sb.cum.data();
    const auto flushSweep = [&] {
        if (ri != sweep0) {
            const Superblock::CumRow &c1 = cum[ri];
            const Superblock::CumRow &c0 = cum[sweep0];
            for (size_t f = 0; f < c1.fn.size(); ++f)
                cpu.ctrs_.fn[f] += static_cast<uint64_t>(
                    c1.fn[f] - c0.fn[f]);
            icount += static_cast<uint64_t>(c1.len - c0.len);
            sweep0 = ri;
        }
    };
    const auto spill = [&] {
        flushSweep();
        cpu.iptr_ = iptr;
        cpu.areg_ = a;
        cpu.breg_ = b;
        cpu.creg_ = c;
        cpu.wptr_ = wp;
        cpu.time_ = t;
        cpu.lastInstrStart_ = lis;
        cpu.cycles_ = cyc;
        cpu.instructions_ = icount;
    };
    const auto reload = [&] {
        iptr = cpu.iptr_;
        a = cpu.areg_;
        b = cpu.breg_;
        c = cpu.creg_;
        wp = cpu.wptr_;
        t = cpu.time_;
        lis = cpu.lastInstrStart_;
        cyc = cpu.cycles_;
        err = cpu.errorFlag_;
        halt_on_err = cpu.haltOnError_;
    };
    PredecodeCache::Entry *const entries = cpu.icache_.entriesMut();
    const uint32_t *const gens = cpu.icache_.gensData();
    const Step *const steps = sb.steps.data();
    const size_t nsteps = sb.nsteps;
    uint64_t hits = 0;
    // The observation thresholds fold into the time bound: inside the
    // block, cycles and time advance in lockstep (every charge pairs
    // cyc += k with t += k*period), so the profiler's cycle threshold
    // maps exactly onto a tick and the per-chain bound check in
    // NEXT() already exits at the sampling boundary (Deopt::Bound) --
    // the outer tier loop fires the sample at that same chain
    // boundary before the next chain executes.  With observation
    // disabled both sentinels leave the bound untouched, so sampling
    // costs the hot loop nothing.  Recomputed after every reload:
    // mid-block calls into the core may move the clock.
    Tick xbound = bound;
    const auto foldObsBound = [&] {
        xbound = bound;
        if (cpu.tsNextTick_ != maxTick &&
            cpu.tsNextTick_ - 1 < xbound)
            xbound = cpu.tsNextTick_ - 1;
        if (cpu.profNextCycle_ != ~uint64_t{0}) {
            const Tick tProf =
                cpu.profNextCycle_ > cyc
                    ? t + static_cast<Tick>(
                              cpu.profNextCycle_ - cyc) *
                          period
                    : t;
            if (tProf - 1 < xbound)
                xbound = tProf - 1;
        }
    };
    foldObsBound();
    uint64_t visited =
        (!Primed && cpu.icache_.misses() == sb.visitFence)
            ? sb.visited
            : 0;
    size_t i = 0;
    const Step *st = nullptr;

// Per-chain retire prologue, mirroring runFused: cache-slot
// emulation (or a banked hit when primed), off-chip fetch charge,
// instruction/prefix/function accounting, iptr advance.  A miss
// whose compile image went stale deopts BEFORE executing the chain,
// exactly where the interpreter would re-decode the new bytes.
#define RETIRE(STEP, ADJ)                                              \
    do {                                                               \
        if (!Primed) {                                                 \
            PredecodeCache::Entry &sl = entries[(STEP)->slot];         \
            if (sl.length && sl.tag == (STEP)->tag &&                  \
                gens[sl.gidx] == sl.gen &&                             \
                gens[sl.gidx2] == sl.gen2) {                           \
                ++hits;                                                \
            } else {                                                   \
                if (gens[(STEP)->gidx] != (STEP)->gen ||               \
                    gens[(STEP)->gidx2] != (STEP)->gen2) {             \
                    why = Deopt::GuardStale;                           \
                    goto out;                                          \
                }                                                      \
                cpu.icache_.noteMiss(sl.length &&                      \
                                     sl.tag == (STEP)->tag);           \
                sl.tag = (STEP)->tag;                                  \
                sl.operand = (STEP)->operand;                          \
                sl.gidx = (STEP)->gidx;                                \
                sl.gidx2 = (STEP)->gidx2;                              \
                sl.gen = (STEP)->gen;                                  \
                sl.gen2 = (STEP)->gen2;                                \
                sl.length = (STEP)->length;                            \
                sl.pfixes = (STEP)->pfixes;                            \
                sl.nfixes = (STEP)->nfixes;                            \
                sl.fn = (STEP)->fn;                                    \
                sl.flags = (STEP)->flags;                              \
                sl.offChip = (STEP)->offChip;                          \
            }                                                          \
            visited |= uint64_t{1}                                     \
                       << static_cast<size_t>((STEP) - steps);         \
        } else {                                                       \
            ++hits;                                                    \
        }                                                              \
        if ((STEP)->offChip) {                                         \
            cpu.time_ = t;                                             \
            cpu.cycles_ = cyc;                                         \
            cpu.chargeFetchSpan((STEP)->tag, (STEP)->length);          \
            t = cpu.time_;                                             \
            cyc = cpu.cycles_;                                         \
        }                                                              \
        /* instruction and function counts flow through the sweep's   \
           cum rows, flushed in spill(); only the clock needs the     \
           prefixes here */                                            \
        if (const int pf__ = (STEP)->pfixes + (STEP)->nfixes) {        \
            cyc += static_cast<uint64_t>(pf__);                        \
            t += pf__ * period;                                        \
        }                                                              \
        /* post-prefix start, as executePredecoded records it: the    \
           field is snapshot state, so every tier must stamp every    \
           chain (grouped superops stamp each member through their    \
           interleaved RETIREs, leaving the last member's start) */   \
        lis = t;                                                       \
        iptr = (STEP)->next;                                           \
        /* past this chain: set only now -- the stale check above     \
           exits before the chain architecturally retires */           \
        ri = i + (ADJ) + 1;                                            \
    } while (0)

#define CHARGE(N)                                                      \
    do {                                                               \
        cyc += (N);                                                    \
        t += (N) * period;                                             \
    } while (0)

#define CHARGE_WAITS(ADDR)                                             \
    do {                                                               \
        if (const int w__ = cpu.mem_.accessWaits(ADDR)) {              \
            cyc += static_cast<uint64_t>(w__);                         \
            t += w__ * period;                                         \
        }                                                              \
    } while (0)

// After a store in primed mode: the skipped slot checks would have
// caught a store into this block's code, so the guard generations
// stand in for them.  The storing chain has already retired; the
// deopt lands on the following chain boundary, exactly where the
// interpreter would re-decode.
#define STORE_RECHECK()                                                \
    do {                                                               \
        if (Primed && !sb.guardsOk(gens)) {                            \
            why = Deopt::GuardStale;                                   \
            goto out;                                                  \
        }                                                              \
    } while (0)

#define HALT_CHECK()                                                   \
    do {                                                               \
        if (err && halt_on_err) {                                      \
            cpu.state_ = CpuState::Halted;                             \
            cpu.trcAt(t, obs::Ev::Halt,                                \
                      wp | static_cast<Word>(cpu.pri_));               \
            why = Deopt::Halt;                                         \
            goto out;                                                  \
        }                                                              \
    } while (0)

#define NEXT()                                                         \
    do {                                                               \
        if (n >= budget) {                                             \
            why = Deopt::Budget;                                       \
            goto out;                                                  \
        }                                                              \
        if (t > xbound) {                                              \
            why = Deopt::Bound;                                        \
            goto out;                                                  \
        }                                                              \
        if (i >= nsteps) {                                             \
            why = Deopt::End;                                          \
            goto out;                                                  \
        }                                                              \
        st = &steps[i];                                                \
        goto *tbl[static_cast<size_t>(Primed ? st->kind : st->solo)];  \
    } while (0)

    try {
        NEXT();

  L_J: {
        RETIRE(st, 0);
        CHARGE(3);
        const Word target = s.truncate(iptr + st->operand);
        iptr = target;
        cpu.flushFetchBuffer();
        ++n;
        spill();
        cpu.timesliceCheck(); // a descheduling point
        reload();
        foldObsBound();
        if (cpu.state_ != CpuState::Running) {
            why = Deopt::Deschedule;
            goto out;
        }
        if (iptr == sb.entry) {
            flushSweep();
            ri = sweep0 = 0;
            i = 0;
            NEXT();
        }
        // a timeslice rotation moved to another process at the same
        // code address; a plain forward/exit jump is a branch out
        why = iptr == target ? Deopt::BranchOut : Deopt::Deschedule;
        goto out;
      }

  L_Ldlp:
        RETIRE(st, 0);
        CHARGE(1);
        c = b;
        b = a;
        a = s.index(wp, st->sop);
        ++n;
        ++i;
        NEXT();

  L_Ldnl: {
        RETIRE(st, 0);
        CHARGE(2);
        const Word addr = s.index(s.wordAlign(a), st->sop);
        CHARGE_WAITS(addr);
        a = cpu.mem_.readWord(addr);
        ++n;
        ++i;
        NEXT();
      }

  L_Ldc:
        RETIRE(st, 0);
        CHARGE(1);
        c = b;
        b = a;
        a = st->operand;
        ++n;
        ++i;
        NEXT();

  L_Ldnlp:
        RETIRE(st, 0);
        CHARGE(1);
        a = s.index(a, st->sop);
        ++n;
        ++i;
        NEXT();

  L_Ldl: {
        RETIRE(st, 0);
        CHARGE(2);
        const Word addr = s.index(wp, st->sop);
        CHARGE_WAITS(addr);
        const Word v = cpu.mem_.readWord(addr);
        c = b;
        b = a;
        a = v;
        ++n;
        ++i;
        NEXT();
      }

  L_Adc: {
        RETIRE(st, 0);
        CHARGE(1);
        const int64_t r = s.toSigned(a) + st->sop;
        if (overflows(s, r)) {
            err = true;
            cpu.errorFlag_ = true;
        }
        a = s.truncate(static_cast<uint64_t>(r));
        ++n;
        ++i;
        HALT_CHECK();
        NEXT();
      }

  L_Call: {
        RETIRE(st, 0);
        CHARGE(7);
        const Word w = s.index(wp, -4);
        const Word vals[4] = {iptr, a, b, c};
        for (int j = 0; j < 4; ++j) {
            const Word addr = s.index(w, j);
            CHARGE_WAITS(addr);
            cpu.mem_.writeWord(addr, vals[j]);
        }
        a = iptr; // return address available to the callee
        wp = w;
        iptr = s.truncate(iptr + st->operand);
        cpu.flushFetchBuffer();
        ++n;
        ++i; // the walk continued at the static call target
        STORE_RECHECK();
        NEXT();
      }

  L_Cj: {
        RETIRE(st, 0);
        if (a == 0) {
            CHARGE(4);
            const Word target = s.truncate(iptr + st->operand);
            iptr = target;
            cpu.flushFetchBuffer();
            ++n;
            if (target == sb.entry) {
                flushSweep();
                ri = sweep0 = 0;
                i = 0;
                NEXT();
            }
            why = Deopt::BranchOut;
            goto out;
        }
        CHARGE(2);
        a = b;
        b = c;
        ++n;
        ++i;
        NEXT();
      }

  L_Ajw:
        RETIRE(st, 0);
        CHARGE(1);
        wp = s.index(wp, st->sop);
        ++n;
        ++i;
        NEXT();

  L_Eqc:
        RETIRE(st, 0);
        CHARGE(2);
        a = a == st->operand ? 1 : 0;
        ++n;
        ++i;
        NEXT();

  L_Stl: {
        RETIRE(st, 0);
        CHARGE(1);
        const Word addr = s.index(wp, st->sop);
        const Word v = a;
        a = b;
        b = c;
        CHARGE_WAITS(addr);
        cpu.mem_.writeWord(addr, v);
        ++n;
        ++i;
        STORE_RECHECK();
        NEXT();
      }

  L_Stnl: {
        RETIRE(st, 0);
        CHARGE(2);
        const Word addr = s.index(s.wordAlign(a), st->sop);
        CHARGE_WAITS(addr);
        cpu.mem_.writeWord(addr, b);
        a = c;
        ++n;
        ++i;
        STORE_RECHECK();
        NEXT();
      }

        // inlined fast operations: the OPR chain prologue plus the
        // operation's execOp body, with its base cycle charge
  L_OpAdd: {
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        const int64_t r = s.toSigned(b) + s.toSigned(a);
        if (overflows(s, r)) {
            err = true;
            cpu.errorFlag_ = true;
        }
        a = s.truncate(static_cast<uint64_t>(r));
        b = c;
        ++n;
        ++i;
        HALT_CHECK();
        NEXT();
      }

  L_OpSub: {
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        const int64_t r = s.toSigned(b) - s.toSigned(a);
        if (overflows(s, r)) {
            err = true;
            cpu.errorFlag_ = true;
        }
        a = s.truncate(static_cast<uint64_t>(r));
        b = c;
        ++n;
        ++i;
        HALT_CHECK();
        NEXT();
      }

  L_OpDiff:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        a = s.truncate(b - a);
        b = c;
        ++n;
        ++i;
        NEXT();

  L_OpSum:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        a = s.truncate(b + a);
        b = c;
        ++n;
        ++i;
        NEXT();

  L_OpGt:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(2);
        a = s.toSigned(b) > s.toSigned(a) ? 1 : 0;
        b = c;
        ++n;
        ++i;
        NEXT();

  L_OpRev: {
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        const Word v = a;
        a = b;
        b = v;
        ++n;
        ++i;
        NEXT();
      }

  L_OpWsub:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(2);
        a = s.index(a, s.toSigned(b));
        b = c;
        ++n;
        ++i;
        NEXT();

  L_OpBsub:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        a = s.truncate(a + b);
        b = c;
        ++n;
        ++i;
        NEXT();

  L_OpAnd:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        a = b & a;
        b = c;
        ++n;
        ++i;
        NEXT();

  L_OpOr:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        a = b | a;
        b = c;
        ++n;
        ++i;
        NEXT();

  L_OpXor:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        a = b ^ a;
        b = c;
        ++n;
        ++i;
        NEXT();

  L_OpNot:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        a = s.truncate(~a);
        ++n;
        ++i;
        NEXT();

  L_OpMint:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        c = b;
        b = a;
        a = s.mostNeg;
        ++n;
        ++i;
        NEXT();

  L_OpDup:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(1);
        c = b;
        b = a;
        ++n;
        ++i;
        NEXT();

  L_OpLdpi:
        RETIRE(st, 0);
        ++cpu.ctrs_.op[st->operand];
        CHARGE(2);
        a = s.truncate(iptr + a);
        ++n;
        ++i;
        NEXT();

  L_OpGeneric: {
        // any other fast operation: spill, run the core's generic
        // operation path (it owns the counters and cycle charges),
        // reload, and re-join the block if control fell through --
        // this is how lend-loop back-edges, gcall/ret tails and the
        // error-flag operations stay inside the tier
        RETIRE(st, 0);
        spill();
        cpu.execOp(st->operand);
        reload();
        foldObsBound();
        ++n;
        if (err && halt_on_err) {
            cpu.state_ = CpuState::Halted;
            cpu.trcAt(t, obs::Ev::Halt, cpu.wdesc());
            why = Deopt::Halt;
            goto out;
        }
        if (cpu.state_ != CpuState::Running) {
            why = Deopt::Deschedule;
            goto out;
        }
        STORE_RECHECK();
        if (i + 1 < nsteps && iptr == steps[i + 1].tag) {
            ++i;
            NEXT();
        }
        if (iptr == sb.entry) {
            flushSweep();
            ri = sweep0 = 0;
            i = 0;
            NEXT();
        }
        why = Deopt::BranchOut;
        goto out;
      }

        // fused superops (primed dispatch only): the member chains'
        // bodies concatenated with the per-chain dispatch, bound and
        // budget checks hoisted into one conservative pre-check; near
        // a boundary the head re-enters through its solo handler
  L_LdcStl: {
        if (n + 2 > budget ||
            t + st->groupPreCost * period > xbound)
            goto *tbl[static_cast<size_t>(st->solo)];
        const Step *s1 = st + 1;
        RETIRE(st, 0);
        CHARGE(1);
        RETIRE(s1, 1);
        CHARGE(1);
        const Word addr = s.index(wp, s1->sop);
        CHARGE_WAITS(addr);
        cpu.mem_.writeWord(addr, st->operand);
        c = b;
        n += 2;
        i += 2;
        STORE_RECHECK();
        NEXT();
      }

  L_LdlpStl: {
        if (n + 2 > budget ||
            t + st->groupPreCost * period > xbound)
            goto *tbl[static_cast<size_t>(st->solo)];
        const Step *s1 = st + 1;
        RETIRE(st, 0);
        CHARGE(1);
        RETIRE(s1, 1);
        CHARGE(1);
        const Word addr = s.index(wp, s1->sop);
        CHARGE_WAITS(addr);
        cpu.mem_.writeWord(addr, s.index(wp, st->sop));
        c = b;
        n += 2;
        i += 2;
        STORE_RECHECK();
        NEXT();
      }

  L_LdlStl: {
        if (n + 2 > budget ||
            t + st->groupPreCost * period > xbound)
            goto *tbl[static_cast<size_t>(st->solo)];
        const Step *s1 = st + 1;
        RETIRE(st, 0);
        CHARGE(2);
        const Word src = s.index(wp, st->sop);
        CHARGE_WAITS(src);
        const Word v = cpu.mem_.readWord(src);
        RETIRE(s1, 1);
        CHARGE(1);
        const Word dst = s.index(wp, s1->sop);
        CHARGE_WAITS(dst);
        cpu.mem_.writeWord(dst, v);
        c = b;
        n += 2;
        i += 2;
        STORE_RECHECK();
        NEXT();
      }

  L_AdcStl: {
        if (n + 2 > budget ||
            t + st->groupPreCost * period > xbound)
            goto *tbl[static_cast<size_t>(st->solo)];
        const Step *s1 = st + 1;
        RETIRE(st, 0);
        CHARGE(1);
        const int64_t r = s.toSigned(a) + st->sop;
        if (overflows(s, r)) {
            err = true;
            cpu.errorFlag_ = true;
        }
        a = s.truncate(static_cast<uint64_t>(r));
        ++n;
        ++i;
        HALT_CHECK(); // the store must not run past a halting adc
        RETIRE(s1, 0); // i already advanced past the adc
        CHARGE(1);
        const Word addr = s.index(wp, s1->sop);
        const Word v = a;
        a = b;
        b = c;
        CHARGE_WAITS(addr);
        cpu.mem_.writeWord(addr, v);
        ++n;
        ++i;
        STORE_RECHECK();
        NEXT();
      }

  L_LdcAdcStl: {
        if (n + 3 > budget ||
            t + st->groupPreCost * period > xbound)
            goto *tbl[static_cast<size_t>(st->solo)];
        const Step *s1 = st + 1, *s2 = st + 2;
        RETIRE(st, 0);
        CHARGE(1);
        RETIRE(s1, 1);
        CHARGE(1);
        RETIRE(s2, 2);
        CHARGE(1);
        // constant folded at compile time (a folding that would
        // overflow is never fused); net stack effect of push+pop
        const Word addr = s.index(wp, s2->sop);
        CHARGE_WAITS(addr);
        cpu.mem_.writeWord(addr, st->aux);
        c = b;
        n += 3;
        i += 3;
        STORE_RECHECK();
        NEXT();
      }

  L_LdlAdcStl: {
        if (n + 3 > budget ||
            t + st->groupPreCost * period > xbound)
            goto *tbl[static_cast<size_t>(st->solo)];
        const Step *s1 = st + 1, *s2 = st + 2;
        RETIRE(st, 0);
        CHARGE(2);
        const Word src = s.index(wp, st->sop);
        CHARGE_WAITS(src);
        const Word v = cpu.mem_.readWord(src);
        ++n;
        RETIRE(s1, 1);
        CHARGE(1);
        const int64_t r = s.toSigned(v) + s1->sop;
        if (overflows(s, r)) {
            err = true;
            cpu.errorFlag_ = true;
            // materialize the halting adc's exact stack before exit
            c = b;
            b = a;
            a = s.truncate(static_cast<uint64_t>(r));
            ++n;
            ++i;
            ++i;
            HALT_CHECK();
            // error flag set but not halting: fall through via the
            // already-updated stack (the store pops it again)
            const Word dst0 = s.index(wp, s2->sop);
            const Word sv = a;
            a = b;
            b = c;
            RETIRE(s2, 0); // i already advanced past ldl and adc
            CHARGE(1);
            CHARGE_WAITS(dst0);
            cpu.mem_.writeWord(dst0, sv);
            ++n;
            ++i;
            STORE_RECHECK();
            NEXT();
        }
        RETIRE(s2, 2);
        CHARGE(1);
        const Word dst = s.index(wp, s2->sop);
        CHARGE_WAITS(dst);
        cpu.mem_.writeWord(dst, s.truncate(static_cast<uint64_t>(r)));
        c = b;
        n += 2;
        i += 3;
        STORE_RECHECK();
        NEXT();
      }

  L_LdlLdlBinop: {
        if (n + 3 > budget ||
            t + st->groupPreCost * period > xbound)
            goto *tbl[static_cast<size_t>(st->solo)];
        const Step *s1 = st + 1, *s2 = st + 2;
        RETIRE(st, 0);
        CHARGE(2);
        const Word src1 = s.index(wp, st->sop);
        CHARGE_WAITS(src1);
        const Word v1 = cpu.mem_.readWord(src1);
        c = b;
        b = a;
        a = v1;
        ++n;
        RETIRE(s1, 1);
        CHARGE(2);
        const Word src2 = s.index(wp, s1->sop);
        CHARGE_WAITS(src2);
        const Word v2 = cpu.mem_.readWord(src2);
        c = b;
        b = a;
        a = v2;
        ++n;
        RETIRE(s2, 2);
        ++cpu.ctrs_.op[s2->operand];
        switch (static_cast<Op>(s2->operand)) {
          case Op::ADD: {
            CHARGE(1);
            const int64_t r = s.toSigned(b) + s.toSigned(a);
            if (overflows(s, r)) {
                err = true;
                cpu.errorFlag_ = true;
            }
            a = s.truncate(static_cast<uint64_t>(r));
            b = c;
            break;
          }
          case Op::SUM:
            CHARGE(1);
            a = s.truncate(b + a);
            b = c;
            break;
          case Op::DIFF:
            CHARGE(1);
            a = s.truncate(b - a);
            b = c;
            break;
          case Op::GT:
            CHARGE(2);
            a = s.toSigned(b) > s.toSigned(a) ? 1 : 0;
            b = c;
            break;
          case Op::AND:
            CHARGE(1);
            a = b & a;
            b = c;
            break;
          case Op::OR:
            CHARGE(1);
            a = b | a;
            b = c;
            break;
          default: // XOR (binopFusable admits nothing else)
            CHARGE(1);
            a = b ^ a;
            b = c;
            break;
        }
        ++n;
        i += 3;
        HALT_CHECK();
        NEXT();
      }

  L_CjLoop: {
        if (n + 2 > budget ||
            t + st->groupPreCost * period > xbound)
            goto *tbl[static_cast<size_t>(st->solo)];
        const Step *s1 = st + 1;
        RETIRE(st, 0);
        if (a == 0) { // taken: leaves the loop, j never runs
            CHARGE(4);
            const Word target = s.truncate(iptr + st->operand);
            iptr = target;
            cpu.flushFetchBuffer();
            ++n;
            if (target == sb.entry) {
                flushSweep();
                ri = sweep0 = 0;
                i = 0;
                NEXT();
            }
            why = Deopt::BranchOut;
            goto out;
        }
        CHARGE(2);
        a = b;
        b = c;
        ++n;
        RETIRE(s1, 1);
        CHARGE(3);
        const Word jt = s.truncate(iptr + s1->operand);
        iptr = jt;
        cpu.flushFetchBuffer();
        ++n;
        spill();
        cpu.timesliceCheck(); // a descheduling point
        reload();
        foldObsBound();
        if (cpu.state_ != CpuState::Running) {
            why = Deopt::Deschedule;
            goto out;
        }
        if (iptr == sb.entry) {
            flushSweep();
            ri = sweep0 = 0;
            i = 0;
            NEXT();
        }
        why = iptr == jt ? Deopt::BranchOut : Deopt::Deschedule;
        goto out;
      }

  out:
        spill();
    } catch (...) {
        spill();
        cpu.icache_.addHits(hits);
        cpu.inExec_ = false;
        throw;
    }
    cpu.icache_.addHits(hits);
    {
        obs::BlockStats &bs = cpu.bcache_->stats();
        bs.chains += static_cast<uint64_t>(n);
        bs.instructions += icount - icount0;
        bs.cycles += cyc - cyc0;
    }
    if (!Primed) {
        sb.visited = visited;
        sb.visitFence = cpu.icache_.misses();
        const uint64_t full =
            nsteps >= 64 ? ~uint64_t{0}
                         : (uint64_t{1} << nsteps) - 1;
        if (sb.primeable && (visited & full) == full) {
            sb.primed = true;
            sb.missFence = cpu.icache_.misses();
        }
    }
    cpu.inExec_ = false;
    return n;

#undef RETIRE
#undef CHARGE
#undef CHARGE_WAITS
#undef STORE_RECHECK
#undef HALT_CHECK
#undef NEXT
}

#else // !__GNUC__: no computed goto; the tier stays disabled

int
ThreadedBackend::run(Transputer &, Superblock &, Tick, int,
                     Deopt &why)
{
    why = Deopt::Entry;
    return 0;
}

#endif

} // namespace transputer::core::blockc

// ---------------------------------------------------------------------
// Transputer integration (the tier entry points)
// ---------------------------------------------------------------------

namespace transputer::core
{

// the unique_ptr members need blockc's complete types to destroy
Transputer::~Transputer() = default;

obs::Counters
Transputer::counters() const
{
    obs::Counters c = ctrs_;
    c.instructions = instructions_;
    c.cycles = cycles_;
    c.icacheHits = icache_.hits();
    c.icacheMisses = icache_.misses();
    c.icacheInvalidations = icache_.invalidations();
    if (bcache_)
        c.blockc = bcache_->stats();
    return c;
}

void
Transputer::restoreBlockTier(const obs::BlockStats &s)
{
    if (bcache_) {
        bcache_->invalidateAll();
        bcache_->restoreStats(s);
    }
    // without a live cache the stats stay in ctrs_.blockc, which
    // importSnap already restored wholesale
}

bool
Transputer::blockBackendUsable()
{
#ifdef __GNUC__
    return true;
#else
    return false;
#endif
}

/**
 * Whether compiling a superblock can pay off here: the tier's entry
 * and deopt overhead only amortizes over long chain runs, and the
 * fused tier's observed mean run length is the best predictor we
 * have.  Short-run workloads (branchy code, communication-bound
 * loops: dbsearch averages under five chains) run faster staying in
 * the fused tier, so promotion waits until the evidence says
 * otherwise.  With too small a sample the classic behavior (compile
 * at the heat threshold) is kept.  The decision reads only counters
 * that snapshots round-trip, so replays repeat it exactly.
 */
bool
Transputer::blockPromotionAllowed() const
{
    constexpr uint64_t kMinRuns = 32;     ///< sample size to trust
    constexpr uint64_t kMinMeanRun = 6;   ///< chains per fused run
    const auto &f = ctrs_.fused;
    return f.runs < kMinRuns ||
           f.instructions >= kMinMeanRun * f.runs;
}

void
Transputer::ensureBlockTier()
{
    if (!bcache_) {
        bcache_ = std::make_unique<blockc::BlockCache>();
        // stats accumulated (or snapshot-restored) while the tier had
        // no live cache were carried in ctrs_.blockc; counters()
        // reads the live cache once one exists
        bcache_->restoreStats(ctrs_.blockc);
    }
}

size_t
Transputer::blockTierFootprint() const
{
    return bcache_ ? bcache_->footprintBytes() : 0;
}

int
Transputer::runBlocks(Tick bound, int budget)
{
    if (!blockCompileEnabled_ || !predecodeEnabled_ || oreg_ != 0 ||
        trace_ || budget <= 0 || state_ != CpuState::Running ||
        time_ > bound)
        return 0;
    ensureBlockTier();
    blockc::BlockCache &bc = *bcache_;
    blockc::Superblock *sb = bc.find(iptr_);
    if (!sb) {
        if (!bc.heat(iptr_))
            return 0;
        if (!blockPromotionAllowed()) {
            bc.cool(iptr_); // re-heats; run length may change
            return 0;
        }
        sb = bc.compile(mem_, icache_.gensData(),
                        icache_.indexMask(), shape_,
                        cfg_.externalWaits, iptr_);
        if (!sb)
            return 0;
    }
    if (!sb->guardsOk(icache_.gensData())) {
        ++bc.stats().deopts[static_cast<size_t>(
            blockc::Deopt::Entry)];
        bc.invalidate(*sb);
        return 0;
    }
    ++bc.stats().enters;
    blockc::Deopt why = blockc::Deopt::End;
    const int n =
        blockc::ThreadedBackend::run(*this, *sb, bound, budget, why);
    ++bc.stats().deopts[static_cast<size_t>(why)];
    // flight ring only (not the trace ring), and only the abnormal
    // reasons: Bound/Budget/End are how every batched dispatch ends,
    // and recording them would evict the scheduler history a
    // post-mortem actually needs.  A GuardStale streak before a hang
    // is exactly what this is for.
    if (flightOn_ && why != blockc::Deopt::Bound &&
        why != blockc::Deopt::Budget && why != blockc::Deopt::End)
        recordFlight(time_, obs::Ev::Deopt,
                     static_cast<uint64_t>(why),
                     static_cast<uint64_t>(n), 0);
    if (why == blockc::Deopt::GuardStale)
        bc.invalidate(*sb); // self-modified: re-heat and recompile
    return n;
}

bool
Transputer::wantsBlockEntry(Word iptr)
{
    // called from runFused at jump back-edges: a compiled (or
    // compilable-right-now) block at the target makes the fused loop
    // bail so the next dispatch enters the block at its proper head
    ensureBlockTier();
    blockc::BlockCache &bc = *bcache_;
    blockc::Superblock *sb = bc.find(iptr);
    if (!sb && bc.heat(iptr)) {
        if (!blockPromotionAllowed()) {
            bc.cool(iptr);
            return false;
        }
        sb = bc.compile(mem_, icache_.gensData(),
                        icache_.indexMask(), shape_,
                        cfg_.externalWaits, iptr);
    }
    return sb != nullptr;
}

bool
Transputer::hasBlockAt(Word iptr) const
{
    return blockCompileEnabled_ && bcache_ &&
           bcache_->find(iptr) != nullptr;
}

void
Transputer::setBlockCompileEnabled(bool on)
{
    if (on && !blockBackendUsable())
        return;
    // the cache (~75 KiB) appears on first use, so merely
    // enabling the tier keeps an idle node small
    blockCompileEnabled_ = on;
}

} // namespace transputer::core
