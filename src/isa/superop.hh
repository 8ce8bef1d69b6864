/**
 * @file
 * Superop IR for the block-compiler execution tier (see DESIGN.md
 * "Block compiler").
 *
 * A superop is the unit the block compiler emits: one predecoded
 * chain bound to a specialized handler (the solo kinds), or a short
 * run of adjacent chains folded into a single handler (the fused
 * kinds).  Classification and fusion are pure functions over
 * isa::Predecoded values, so they are unit-testable without a core.
 *
 * Fusion rules are strictly peephole over the transputer's canonical
 * stack idioms (the compiler-emitted sequences the paper's examples
 * produce):
 *   - load/store pairs:  {ldc,ldlp,ldl,adc} ; stl
 *   - constant fold:     ldc k ; adc m ; stl x   (store of k+m)
 *   - memory increment:  ldl x ; adc k ; stl y
 *   - binary operate:    ldl x ; ldl y ; {add,sum,diff,gt,and,or,xor}
 *   - loop back-edge:    cj exit ; j head       (head == block entry)
 * Every rule preserves the per-chain architectural accounting (the
 * executing backend still retires each member chain's counters and
 * cycle charges); fusion only removes dispatch and stack traffic.
 */

#ifndef TRANSPUTER_ISA_SUPEROP_HH
#define TRANSPUTER_ISA_SUPEROP_HH

#include <cstdint>

#include "isa/opcodes.hh"
#include "isa/predecode.hh"

namespace transputer::isa::superop
{

/** Handler kinds.  Order is the backend's dispatch-table order. */
enum class Kind : uint8_t
{
    // solo direct functions (one chain each)
    J = 0,
    Ldlp,
    Ldnl,
    Ldc,
    Ldnlp,
    Ldl,
    Adc,
    Call,
    Cj,
    Ajw,
    Eqc,
    Stl,
    Stnl,
    // inlined fast operations (one chain each)
    OpAdd,
    OpSub,
    OpDiff,
    OpSum,
    OpGt,
    OpRev,
    OpWsub,
    OpBsub,
    OpAnd,
    OpOr,
    OpXor,
    OpNot,
    OpMint,
    OpDup,
    OpLdpi,
    /** Any other fast, defined operation: the backend spills to the
     *  core's generic operation path and reloads. */
    OpGeneric,
    // fused superops (the head step carries these; member steps keep
    // their solo kinds so a backend can always fall back per chain)
    LdcStl,     ///< ldc k ; stl x          (2 chains, stack-neutral)
    LdlpStl,    ///< ldlp k ; stl x         (2 chains, stack-neutral)
    LdlStl,     ///< ldl x ; stl y          (2 chains, stack-neutral)
    AdcStl,     ///< adc k ; stl x          (2 chains)
    LdcAdcStl,  ///< ldc k ; adc m ; stl x  (3 chains, folded constant)
    LdlAdcStl,  ///< ldl x ; adc k ; stl y  (3 chains, stack-neutral)
    LdlLdlBinop,///< ldl x ; ldl y ; binop  (3 chains)
    CjLoop,     ///< cj exit ; j entry      (2 chains, loop back-edge)
    kCount
};

constexpr size_t kKinds = static_cast<size_t>(Kind::kCount);

/** Chains covered by a superop of this kind (1 for solo kinds). */
constexpr int
chainsOf(Kind k)
{
    switch (k) {
      case Kind::LdcStl:
      case Kind::LdlpStl:
      case Kind::LdlStl:
      case Kind::AdcStl:
      case Kind::CjLoop:
        return 2;
      case Kind::LdcAdcStl:
      case Kind::LdlAdcStl:
      case Kind::LdlLdlBinop:
        return 3;
      default:
        return 1;
    }
}

constexpr bool fusedKind(Kind k) { return chainsOf(k) > 1; }

/**
 * The solo kind for one predecoded chain, or Kind::kCount when the
 * chain cannot run inside a superblock at all (non-fast, incomplete,
 * or an undefined operation).
 */
Kind classify(const Predecoded &d);

/** True if the binary operation participates in LdlLdlBinop. */
bool binopFusable(Op op);

/**
 * Fusion decision at position i of a run of predecoded chains.
 * `solo` holds classify() of each chain.  `cj_j_backedge` tells the
 * matcher that chains i and i+1 are a cj followed by a j whose target
 * is the superblock entry (only the caller knows the entry).
 * @return the fused head kind, or solo[i] when nothing matches.
 */
Kind fuse(const Predecoded *chains, const Kind *solo, size_t i,
          size_t n, bool cj_j_backedge);

} // namespace transputer::isa::superop

#endif // TRANSPUTER_ISA_SUPEROP_HH
