#include "checks.h"

#include <cstdlib>

#include "service/protocol.h"
#include "sim/classical.h"
#include "sim/reference.h"

#include "bench.h"

using namespace square;

namespace perfbench {

Counts
countsOf(const CompileResult &r)
{
    Counts c;
    c.gates = r.gates;
    c.swaps = r.swaps;
    c.depth = r.depth;
    c.aqv = r.aqv;
    c.qubitsUsed = r.qubitsUsed;
    c.peakLive = r.peakLive;
    c.reclaims = r.reclaimCount;
    c.skips = r.skipCount;
    c.uncomputeIrGates = r.uncomputeIrGates;
    c.routedGates = r.sched.routedGates;
    c.braids = r.sched.braids;
    c.braidConflicts = r.sched.braidConflicts;
    c.twoQubitGates = r.sched.twoQubitGates;
    return c;
}

bool
sameCounts(const Counts &expect, const Counts &got, std::string &why)
{
    struct Field
    {
        const char *name;
        int64_t Counts::*member;
    };
    static constexpr Field kFields[] = {
        {"gates", &Counts::gates},
        {"swaps", &Counts::swaps},
        {"depth", &Counts::depth},
        {"aqv", &Counts::aqv},
        {"qubits_used", &Counts::qubitsUsed},
        {"peak_live", &Counts::peakLive},
        {"reclaims", &Counts::reclaims},
        {"skips", &Counts::skips},
        {"uncompute_ir_gates", &Counts::uncomputeIrGates},
        {"routed_gates", &Counts::routedGates},
        {"braids", &Counts::braids},
        {"braid_conflicts", &Counts::braidConflicts},
        {"two_qubit_gates", &Counts::twoQubitGates},
    };
    for (const Field &f : kFields) {
        if (expect.*f.member != got.*f.member) {
            why = std::string(f.name) + " " +
                  std::to_string(got.*f.member) + " != first pass " +
                  std::to_string(expect.*f.member);
            return false;
        }
    }
    return true;
}

MachineSpec
macroTwin(const MachineSpec &spec)
{
    switch (spec.kind) {
      case MachineSpec::Kind::FtBraid:
      case MachineSpec::Kind::FtBraidMacro:
        return MachineSpec::ftBraidMacro(spec.width, spec.height,
                                         spec.tLatency);
      default:
        return MachineSpec::nisqLatticeMacro(spec.width, spec.height);
    }
}

SimOutcome
simulateCell(const Program &prog, const Machine &macro_machine,
             const SquareConfig &cfg, uint64_t input_seed)
{
    SimOutcome out;
    Rng rng(input_seed);
    std::vector<bool> inputs(static_cast<size_t>(prog.numPrimary()));
    for (size_t i = 0; i < inputs.size(); ++i)
        inputs[i] = (rng.next() & 1) != 0;

    // The placement of the primaries is a pure function of the cell,
    // so a probe compile tells where to load the inputs.
    const CompileResult probe = compile(prog, macro_machine, cfg, {});
    ClassicalSim sim(macro_machine.numSites());
    for (size_t i = 0; i < probe.primaryInitialSites.size(); ++i)
        sim.setBit(probe.primaryInitialSites[i], inputs[i]);
    CompileOptions opts;
    opts.extraSink = &sim;
    const CompileResult r = compile(prog, macro_machine, cfg, opts);

    out.violations = sim.reclaimViolations();
    out.got = sim.read(r.primaryFinalSites);
    out.expected = simulateReference(prog, inputs);
    return out;
}

bool
simPasses(const SimOutcome &o, std::string &why)
{
    if (o.violations != 0) {
        why = std::to_string(o.violations) + " reclaim violation(s)";
        return false;
    }
    if (o.got.size() != o.expected.size()) {
        why = "output width " + std::to_string(o.got.size()) +
              " != reference " + std::to_string(o.expected.size());
        return false;
    }
    for (size_t i = 0; i < o.got.size(); ++i) {
        if (o.got[i] != o.expected[i]) {
            why = "output bit " + std::to_string(i) +
                  " differs from the reference simulation";
            return false;
        }
    }
    return true;
}

bool
parseReply(std::string_view line, ReplyMetrics &out, std::string &why)
{
    JsonRequest json;
    if (!parseJsonLine(line, json, why))
        return false;
    if (json.get("ok") != "true") {
        why = "reply not ok: status \"" + json.get("status") +
              "\" error \"" + json.get("error") + "\"";
        return false;
    }
    struct Field
    {
        const char *key;
        int64_t ReplyMetrics::*member;
    };
    static constexpr Field kFields[] = {
        {"gates", &ReplyMetrics::gates},
        {"swaps", &ReplyMetrics::swaps},
        {"depth", &ReplyMetrics::depth},
        {"aqv", &ReplyMetrics::aqv},
        {"qubits_used", &ReplyMetrics::qubitsUsed},
        {"peak_live", &ReplyMetrics::peakLive},
        {"reclaims", &ReplyMetrics::reclaims},
        {"skips", &ReplyMetrics::skips},
    };
    for (const Field &f : kFields) {
        const std::string *value = json.find(f.key);
        if (value == nullptr) {
            why = std::string("reply has no ") + f.key;
            return false;
        }
        out.*f.member = std::strtoll(value->c_str(), nullptr, 10);
    }
    return true;
}

bool
metricsMatch(const ReplyMetrics &served, const CompileResult &expect,
             std::string &why)
{
    ReplyMetrics want;
    want.gates = expect.gates;
    want.swaps = expect.swaps;
    want.depth = expect.depth;
    want.aqv = expect.aqv;
    want.qubitsUsed = expect.qubitsUsed;
    want.peakLive = expect.peakLive;
    want.reclaims = expect.reclaimCount;
    want.skips = expect.skipCount;
    if (served == want)
        return true;
    why = "served gates/swaps/depth/aqv/qubits/peak/reclaims/skips " +
          std::to_string(served.gates) + "/" + std::to_string(served.swaps) +
          "/" + std::to_string(served.depth) + "/" +
          std::to_string(served.aqv) + "/" +
          std::to_string(served.qubitsUsed) + "/" +
          std::to_string(served.peakLive) + "/" +
          std::to_string(served.reclaims) + "/" +
          std::to_string(served.skips) + " != compile() " +
          std::to_string(want.gates) + "/" + std::to_string(want.swaps) +
          "/" + std::to_string(want.depth) + "/" + std::to_string(want.aqv) +
          "/" + std::to_string(want.qubitsUsed) + "/" +
          std::to_string(want.peakLive) + "/" +
          std::to_string(want.reclaims) + "/" + std::to_string(want.skips);
    return false;
}

int64_t
failUnanswered(const std::vector<char> &answered, Report &rep)
{
    int64_t dropped = 0;
    for (char a : answered) {
        if (!a) {
            rep.fail("reply never arrived (dropped)");
            ++dropped;
        }
    }
    return dropped;
}

bool
replyMatches(std::string_view line, const CompileResult &expect,
             std::string &why)
{
    ReplyMetrics served;
    return parseReply(line, served, why) &&
           metricsMatch(served, expect, why);
}

} // namespace perfbench
