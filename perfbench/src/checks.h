/**
 * @file
 * The correctness checks behind failed/attempted.  They run untimed,
 * outside setup_s, and each one is a pure predicate so the self-test
 * (selftest.cc) can feed it injected wrong answers.
 *
 *  - functional: a cell compiled on the macro-Toffoli twin of its
 *    machine, run through ClassicalSim on seeded inputs, must produce
 *    simulateReference's outputs with zero reclaim violations;
 *  - determinism: a cell's counts must be identical across passes;
 *  - serving: a served reply's metric payload must equal an in-process
 *    compile() of the same request, field by field.
 */

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arch/machine.h"
#include "core/compiler.h"
#include "core/policy.h"
#include "ir/module.h"
#include "service/machine_spec.h"

#include "bench.h"

namespace perfbench {

/** Every count compile() reports that must repeat exactly. */
struct Counts
{
    int64_t gates = 0, swaps = 0, depth = 0, aqv = 0;
    int64_t qubitsUsed = 0, peakLive = 0, reclaims = 0, skips = 0;
    int64_t uncomputeIrGates = 0, routedGates = 0, braids = 0,
            braidConflicts = 0, twoQubitGates = 0;

    bool operator==(const Counts &) const = default;
};

Counts countsOf(const square::CompileResult &r);

/** Equal counts, or false with the first differing field in @p why. */
bool sameCounts(const Counts &expect, const Counts &got, std::string &why);

/** One functional simulation of a compiled cell. */
struct SimOutcome
{
    std::vector<bool> expected; ///< simulateReference outputs
    std::vector<bool> got;      ///< ClassicalSim outputs of the trace
    int64_t violations = 0;     ///< reclaims that found a non-zero qubit
};

/** The macro-Toffoli twin of a NISQ lattice or FT braid spec. */
square::MachineSpec macroTwin(const square::MachineSpec &spec);

/**
 * Compile @p prog on @p macro_machine under @p cfg with a ClassicalSim
 * attached, on input bits drawn from @p input_seed.
 */
SimOutcome simulateCell(const square::Program &prog,
                        const square::Machine &macro_machine,
                        const square::SquareConfig &cfg,
                        uint64_t input_seed);

/** The functional verdict: outputs equal and no reclaim violation. */
bool simPasses(const SimOutcome &o, std::string &why);

/** The metric fields a compile reply carries. */
struct ReplyMetrics
{
    int64_t gates = 0, swaps = 0, depth = 0, aqv = 0;
    int64_t qubitsUsed = 0, peakLive = 0, reclaims = 0, skips = 0;

    bool operator==(const ReplyMetrics &) const = default;
};

/**
 * Parse a reply line's metric fields; false (with @p why) unless it is
 * an ok reply (not an error, shed or deadline reply) carrying them all.
 */
bool parseReply(std::string_view line, ReplyMetrics &out, std::string &why);

/** Served metrics equal to @p expect's, field by field. */
bool metricsMatch(const ReplyMetrics &served,
                  const square::CompileResult &expect, std::string &why);

/**
 * Count as failed every request of a pipelined round whose reply never
 * arrived (@p answered is 0); their attempts are already counted.
 * Returns how many.
 */
int64_t failUnanswered(const std::vector<char> &answered, Report &rep);

/** parseReply() and metricsMatch() of one reply line. */
bool replyMatches(std::string_view line,
                  const square::CompileResult &expect, std::string &why);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
