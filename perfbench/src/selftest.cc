/**
 * @file
 * Self-test of the correctness checks: every injected wrong answer must
 * be counted as failed and must never pass.
 */

#include <cstdio>

#include "service/protocol.h"
#include "workloads/registry.h"

#include "checks.h"
#include "workloads.h"

using namespace square;

namespace perfbench {

namespace {

/** Account one checked case into @p rep: the same path a run uses. */
void
check(Report &rep, bool passed, const std::string &why)
{
    rep.attempt();
    if (!passed)
        rep.fail("(injected) " + why);
}

} // namespace

bool
selfTest(uint64_t seed)
{
    // A small cell: RD53 under SQUARE on its 5x5 lattice.
    const BenchmarkInfo &info = findBenchmark("RD53");
    const Program prog = info.build();
    const MachineSpec spec = MachineSpec::paperFor(info);
    const Machine machine = spec.build();
    const SquareConfig cfg = SquareConfig::square();
    const CompileResult good = compile(prog, machine, cfg);

    std::string why;
    bool ok = true;
    auto expect = [&](bool cond, const char *what) {
        if (!cond) {
            std::fprintf(stderr, "perfbench: SELF-TEST FAILED: %s\n", what);
            ok = false;
        }
    };

    // The unmodified answers pass.
    const SimOutcome sim =
        simulateCell(prog, macroTwin(spec).build(), cfg, seed);
    expect(simPasses(sim, why), "a correct simulation is rejected");
    expect(sameCounts(countsOf(good), countsOf(good), why),
           "identical counts are rejected");
    JsonRequest request;
    parseJsonLine("{\"id\": 1, \"workload\": \"RD53\"}", request, why);
    ServiceReply served;
    served.result = std::make_shared<const CompileResult>(good);
    served.hit = true;
    const std::string good_line = formatReply(request, served);
    expect(replyMatches(good_line, good, why), "a correct reply is rejected");

    // Injected wrong answers, each counted exactly as a run counts.
    Report rep(false);
    const int64_t bad_cases = 5;
    SimOutcome flipped = sim;
    flipped.got[0] = !flipped.got[0];
    check(rep, simPasses(flipped, why), why);

    Counts changed = countsOf(good);
    changed.depth += 1;
    check(rep, sameCounts(countsOf(good), changed, why), why);

    CompileResult wrong = good;
    wrong.aqv += 1;
    ServiceReply wrong_reply = served;
    wrong_reply.result = std::make_shared<const CompileResult>(wrong);
    check(rep, replyMatches(formatReply(request, wrong_reply), good, why),
          why);

    // A dropped reply, accounted as the serving loops account a round.
    rep.attempt(3);
    failUnanswered({1, 0, 1}, rep);

    ServiceReply shed;
    shed.status = "overloaded";
    shed.retryAfterMs = 5;
    check(rep, replyMatches(formatReply(request, shed), good, why), why);

    expect(rep.failed() == bad_cases && !rep.correct(),
           "an injected wrong answer was not counted as failed");

    // Inputs follow the seed: same seed, same inputs; another seed,
    // other inputs.
    for (const char *w :
         {"compile_nisq", "compile_ft", "serve_warm", "serve_churn"}) {
        expect(inputDigest(w, seed) == inputDigest(w, seed),
               "a seed does not reproduce its inputs");
        expect(inputDigest(w, seed) != inputDigest(w, seed + 1),
               "a different seed produces identical inputs");
    }
    return ok;
}

} // namespace perfbench
