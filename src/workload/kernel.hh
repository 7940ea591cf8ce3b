/**
 * @file
 * Parameterised synthetic µop kernels.
 *
 * A Kernel deterministically emits a stream of MicroOps whose hardware
 * demands are controlled by a small set of behavioural parameters:
 * instruction mix, dependence-chain shape (ILP), static code layout
 * (I-cache / BTB / gshare pressure), branch-pattern predictability, and
 * data working-set size / access pattern (D-cache / L2 / LSQ pressure).
 *
 * Workloads (one per SPEC CPU 2000 benchmark) are schedules of kernels;
 * kernel switches create the program phases the paper's controller
 * adapts to.
 */

#ifndef ADAPTSIM_WORKLOAD_KERNEL_HH
#define ADAPTSIM_WORKLOAD_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "isa/micro_op.hh"

namespace adaptsim::workload
{

/** Behavioural parameters of a synthetic kernel. */
struct KernelParams
{
    std::string name = "kernel";

    // Instruction mix: fractions of the dynamic stream.  Whatever is
    // left after these becomes IntAlu.
    double fracLoad = 0.25;
    double fracStore = 0.10;
    double fracFpAlu = 0.0;
    double fracFpMul = 0.0;
    double fracFpDiv = 0.0;
    double fracIntMul = 0.02;
    double fracIntDiv = 0.0;

    /**
     * Fraction of source operands drawn from the most recent few
     * destinations.  High values build long serial chains (low ILP);
     * low values spread dependencies (high ILP).
     */
    double shortDepFrac = 0.4;

    // Static code layout.
    int numBlocks = 64;        ///< static basic blocks
    int blockSize = 8;         ///< µops per block (branch included)

    // Branch behaviour.  Block-ending branches are assigned one of
    // three archetypes at layout time, mirroring real demographics:
    // strongly biased (if/else guards), loop back-edges with fixed
    // trip counts, and inherently data-dependent ("hard") branches.
    double branchNoise = 0.02; ///< flip probability on biased/loops
    double hardBranchFrac = 0.08; ///< fraction of data-dependent blocks
    double loopBranchFrac = 0.30; ///< fraction of loop-pattern blocks
    int loopTripCount = 16;    ///< max taken-streak of loop branches

    // Data memory behaviour.
    std::uint64_t dataWorkingSet = 64 * 1024; ///< bytes
    double randomAccessFrac = 0.1; ///< random vs strided accesses
    int strideBytes = 8;           ///< stride of the regular stream
    double pointerChaseFrac = 0.0; ///< loads dependent on prior load
};

/**
 * A deterministic µop generator for one kernel.
 *
 * Two equal-constructed kernels produce identical streams, which is
 * what makes trace replay across configurations possible.
 */
class Kernel
{
  public:
    /**
     * @param params behavioural parameters.
     * @param kernel_id stable identity used to derive PCs and BB ids.
     * @param seed deterministic stream seed.
     */
    Kernel(const KernelParams &params, std::uint32_t kernel_id,
           std::uint64_t seed);

    /** Generate the next µop of the stream. */
    isa::MicroOp next();

    /** Skip @p count µops (same state change as generating them). */
    void skip(std::uint64_t count);

    const KernelParams &params() const { return params_; }

  private:
    /** Emit the terminating branch of the current basic block. */
    isa::MicroOp makeBranch();

    /** Emit a non-branch body µop of the given class. */
    isa::MicroOp makeBodyOp(isa::OpClass cls);

    /** Pick an integer source register. */
    std::int16_t pickIntSrc();

    /** Pick an FP source register. */
    std::int16_t pickFpSrc();

    /** Allocate the next integer destination register. */
    std::int16_t allocIntDest();

    /** Allocate the next FP destination register. */
    std::int16_t allocFpDest();

    /** Compute the next data address for a memory op. */
    Addr nextDataAddr();

    /** PC of instruction @p offset inside block @p block. */
    Addr pcOf(int block, int offset) const;

    KernelParams params_;
    std::uint32_t kernelId_;
    Rng rng_;

    // Execution position.
    int block_ = 0;
    int offset_ = 0;

    /** Branch archetype of a basic block. */
    enum class BranchKind : std::uint8_t { Biased, Loop, Hard };

    // Per-block branch structure (fixed at layout time).
    std::vector<BranchKind> branchKind_;
    std::vector<bool> biasTaken_;      ///< direction of biased blocks
    std::vector<double> hardTakenP_;   ///< P(taken) of hard blocks
    std::vector<int> tripCount_;       ///< loop trip counts
    std::vector<int> tripRemaining_;   ///< live loop countdown
    // Per-block taken-target block (loop back-edge or forward jump).
    std::vector<int> takenTarget_;

    // Register allocation state.
    int intDestCursor_ = 1;
    int fpDestCursor_ = 1;
    std::vector<std::int16_t> recentIntDests_;
    std::vector<std::int16_t> recentFpDests_;
    std::int16_t lastLoadDest_ = 1;

    // Data stream state.
    Addr dataBase_;
    Addr codeBase_;
    std::uint64_t streamPos_ = 0;
};

} // namespace adaptsim::workload

#endif // ADAPTSIM_WORKLOAD_KERNEL_HH
