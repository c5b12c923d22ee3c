/**
 * @file
 * compile_nisq / compile_ft: single-threaded compile() of the 51 cells,
 * pass after pass in a seeded order, with analysis computed inside each
 * compile as a direct caller pays it; plus the compile-side helpers the
 * serving workloads share.
 */

#include <string_view>

#include "ir/analysis.h"
#include "noise/analytical.h"
#include "obs/trace.h"

#include "checks.h"
#include "workloads.h"

using namespace square;

namespace perfbench {

namespace {

/** Set-up repeats for this long in all, half before and half after
    the timed passes. */
constexpr double kSetupS = 2.0;

/**
 * Files the compiler's own phase spans, received through the public
 * CompileOptions::phases hook, under the open compile span.
 */
class PhaseRecorder : public obs::PhaseSink
{
  public:
    explicit PhaseRecorder(Tracer &tracer) : tracer_(tracer) {}

    void
    phaseSpan(std::string_view name, int64_t, int64_t dur_us) override
    {
        const int64_t end = nowNs();
        tracer_.add(name == "analysis" ? "ir.analysis" : "core.walk",
                    end - dur_us * 1000, end, parent);
    }

    int64_t parent = -1;

  private:
    Tracer &tracer_;
};

std::string
cellLabel(const CellSpec &c)
{
    return c.info->name + "/" + c.policy + "@" + c.spec.str();
}

/** Seeded Fisher-Yates shuffle of the pass order. */
void
shuffle(std::vector<size_t> &order, Rng &rng)
{
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
}

} // namespace

int64_t
totalGates(const std::vector<CompileResult> &results)
{
    int64_t gates = 0;
    for (const CompileResult &r : results)
        gates += r.gates;
    return gates;
}

std::vector<Program>
buildPrograms(Tracer &tracer)
{
    ScopedSpan span(tracer, "workloads.build");
    std::vector<Program> programs;
    for (const BenchmarkInfo &info : benchmarkRegistry())
        programs.push_back(info.build());
    return programs;
}

std::vector<CompileResult>
compileCells(const std::vector<CellSpec> &cells,
             const std::vector<Program> &programs, Tracer &tracer)
{
    PhaseRecorder recorder(tracer);
    CompileOptions options;
    if (tracer.on())
        options.phases = &recorder;
    std::vector<CompileResult> results;
    for (const CellSpec &c : cells) {
        const Machine machine = c.spec.build();
        ScopedSpan span(tracer, "compile");
        recorder.parent = span.id();
        results.push_back(
            compile(programs[c.program], machine, c.cfg, options));
    }
    return results;
}

void
reportQuality(const std::vector<CellSpec> &cells,
              const std::vector<CompileResult> &results, Report &rep)
{
    const DeviceParams dev = DeviceParams::analyticalModel();
    std::vector<double> aqv, depth, swaps1, success;
    for (size_t i = 0; i < results.size(); ++i) {
        const CompileResult &r = results[i];
        aqv.push_back(static_cast<double>(r.aqv));
        depth.push_back(static_cast<double>(r.depth));
        // Shifted geometric mean: FT cells route by braids, not swaps.
        swaps1.push_back(static_cast<double>(r.swaps) + 1.0);
        if (cells[i].info->nisqScale)
            success.push_back(estimateSuccess(r, dev).total);
    }
    rep.set("aqv_geomean", geomean(aqv), "count");
    rep.set("depth_geomean", geomean(depth), "cycles");
    rep.set("swaps_geomean", geomean(swaps1), "count");
    rep.set("success_geomean", geomean(success), "probability");
}

void
reportCompileCounts(const std::vector<CompileResult> &results, Report &rep)
{
    Counts total;
    double comm_factor = 0, braid_len = 0;
    int braid_cells = 0;
    for (const CompileResult &r : results) {
        const Counts c = countsOf(r);
        total.reclaims += c.reclaims;
        total.skips += c.skips;
        total.uncomputeIrGates += c.uncomputeIrGates;
        total.peakLive += c.peakLive;
        total.qubitsUsed += c.qubitsUsed;
        total.swaps += c.swaps;
        total.routedGates += c.routedGates;
        total.braids += c.braids;
        total.braidConflicts += c.braidConflicts;
        total.depth += c.depth;
        total.twoQubitGates += c.twoQubitGates;
        comm_factor += r.commFactor;
        if (r.sched.braids > 0) {
            braid_len += r.avgBraidLength;
            ++braid_cells;
        }
    }
    auto count = [&](const char *name, int64_t v) {
        rep.set(name, static_cast<double>(v), "count");
    };
    count("core.reclaims", total.reclaims);
    count("core.skips", total.skips);
    count("core.uncompute_ir_gates", total.uncomputeIrGates);
    count("core.peak_live", total.peakLive);
    count("core.qubits_used", total.qubitsUsed);
    count("route.swaps", total.swaps);
    count("route.routed_gates", total.routedGates);
    count("route.braids", total.braids);
    count("route.braid_conflicts", total.braidConflicts);
    count("schedule.two_qubit_gates", total.twoQubitGates);
    rep.set("schedule.depth", static_cast<double>(total.depth), "cycles");
    rep.set("route.avg_braid_length",
            braid_cells > 0 ? braid_len / braid_cells : 0.0, "sites");
    rep.set("schedule.comm_factor",
            results.empty() ? 0.0
                            : comm_factor /
                                  static_cast<double>(results.size()),
            "ratio");
}

double
reportCompileSpans(const Tracer &tracer, int64_t passes,
                   int64_t gates_per_pass, Report &rep)
{
    std::map<std::string, double> self = tracer.selfNsByName();
    std::map<std::string, int64_t> count = tracer.countByName();
    auto per = [](double ns, double n) { return n > 0 ? ns / n : 0.0; };
    const double p = static_cast<double>(passes);
    rep.set("workloads.build_ms",
            per(self["workloads.build"],
                static_cast<double>(count["workloads.build"])) /
                1e6,
            "ms");
    rep.set("ir.analysis_ms", per(self["ir.analysis"], p) / 1e6, "ms");
    rep.set("core.walk_ms", per(self["core.walk"], p) / 1e6, "ms");
    rep.set("core.walk_ns_per_gate",
            per(self["core.walk"], p * static_cast<double>(gates_per_pass)),
            "ns");
    // A compile span's self time: compile() minus analysis and walk.
    return per(self["compile"], static_cast<double>(count["compile"])) / 1e3;
}

uint64_t
compileDigest(uint64_t seed, bool ft)
{
    const size_t n = cellSpecs(ft).size();
    Rng rng(seed);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    uint64_t h = 1469598103934665603ull ^ (ft ? 1 : 0);
    for (int pass = 0; pass < 4; ++pass) {
        shuffle(order, rng);
        for (size_t i : order)
            h = (h ^ i) * 1099511628211ull;
    }
    for (size_t i = 0; i < n; ++i)
        h = (h ^ Rng(seed * 1000003 + i).next()) * 1099511628211ull;
    return h;
}

int
runCompile(const Options &opt, Report &rep, Tracer &tracer, bool ft)
{
    const std::vector<CellSpec> cells = cellSpecs(ft);
    const size_t n = cells.size();

    // -- set-up, repeated: program builds, analyses, machines ----------
    // One repetition takes ~10 ms; the per-repetition median is
    // reported.
    std::vector<double> setup_s;
    std::vector<Program> programs;
    std::vector<Machine> machines;
    auto set_up = [&] {
        const Clock::time_point t0 = Clock::now();
        programs = buildPrograms(tracer);
        for (const Program &p : programs) {
            const ProgramAnalysis analysis(p);
            (void)analysis;
        }
        machines.clear();
        for (const CellSpec &c : cells)
            machines.push_back(c.spec.build());
        setup_s.push_back(secondsSince(t0));
        return true;
    };
    repeatFor(kSetupS / 2, set_up);

    // -- first pass (untimed warm-up): the reference counts -----------
    Tracer no_trace(false);
    const std::vector<CompileResult> first =
        compileCells(cells, programs, no_trace);
    std::vector<Counts> ref;
    for (const CompileResult &r : first)
        ref.push_back(countsOf(r));

    // -- timed passes ---------------------------------------------------
    // The traced run alternates untraced and traced passes, so the
    // tracing overhead is measured on the same process and inputs.
    Rng rng(opt.seed);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    // Every time metric comes from each cell's compile time at its fast
    // end (fastEnd) over the untraced passes.
    std::vector<std::vector<double>> cell_ms(n);
    std::vector<double> plain_pass_s, traced_pass_s;
    int64_t compiles = 0;
    PhaseRecorder phases(tracer);
    const Clock::time_point run_t0 = Clock::now();
    for (int pass = 0; secondsSince(run_t0) < opt.seconds; ++pass) {
        shuffle(order, rng);
        const bool traced = tracer.on() && pass % 2 == 1;
        CompileOptions options;
        if (traced)
            options.phases = &phases;
        const int64_t pass_span = traced ? tracer.begin("pass") : -1;
        double pass_s = 0;
        for (size_t idx : order) {
            const int64_t span =
                traced ? tracer.begin("compile", pass_span, idx + 1) : -1;
            phases.parent = span;
            const Clock::time_point t0 = Clock::now();
            const CompileResult r = compile(programs[cells[idx].program],
                                            machines[idx], cells[idx].cfg,
                                            options);
            const double dt = secondsSince(t0);
            tracer.end(span);

            rep.attempt();
            std::string why;
            if (!sameCounts(ref[idx], countsOf(r), why))
                rep.fail(cellLabel(cells[idx]) + ": " + why);
            pass_s += dt;
            ++compiles;
            if (!traced)
                cell_ms[idx].push_back(dt * 1e3);
        }
        tracer.end(pass_span);
        (traced ? traced_pass_s : plain_pass_s).push_back(pass_s);
    }

    // -- functional check on the macro-Toffoli twins (untimed) ----------
    const Clock::time_point verify_t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
        const Machine macro = macroTwin(cells[i].spec).build();
        const SimOutcome o = simulateCell(programs[cells[i].program], macro,
                                          cells[i].cfg,
                                          opt.seed * 1000003 + i);
        rep.attempt();
        std::string why;
        if (!simPasses(o, why))
            rep.fail(cellLabel(cells[i]) + " (macro twin): " + why);
    }
    const double verify_s = secondsSince(verify_t0);

    if (!tracer.on()) {
        repeatFor(kSetupS / 2, set_up);
        std::vector<double> cell_fast_ms;
        double pass_ms = 0;
        for (const std::vector<double> &ms : cell_ms) {
            cell_fast_ms.push_back(fastEnd(ms));
            pass_ms += cell_fast_ms.back();
        }
        rep.set("setup_s", median(setup_s), "s");
        rep.set("gates_per_s",
                static_cast<double>(totalGates(first)) / pass_ms * 1e3,
                "1/s");
        rep.set("compile_ms_geomean", geomean(cell_fast_ms), "ms");
        rep.set("req_per_s", static_cast<double>(n) / pass_ms * 1e3, "1/s");
        rep.set("latency_ms_p50", percentile(cell_fast_ms, 50), "ms");
        rep.set("latency_ms_p99", percentile(cell_fast_ms, 99), "ms");
        // No cache sits in front of compile(): every call is cold.
        rep.set("cold_ms_p50", percentile(cell_fast_ms, 50), "ms");
        reportQuality(cells, first, rep);
        std::printf("compile: %lld compiles (%zu cells, %zu passes), a "
                    "pass at each cell's fast end %.3f ms\n",
                    static_cast<long long>(compiles), n,
                    plain_pass_s.size(), pass_ms);
        return 0;
    }

    // -- per-layer (traced run) -----------------------------------------
    rep.set("trace.unattributed_us",
            reportCompileSpans(tracer,
                               static_cast<int64_t>(traced_pass_s.size()),
                               totalGates(first), rep),
            "us");
    reportCompileCounts(first, rep);
    rep.set("sim.verify_s", verify_s, "s");
    rep.set("trace.overhead_pct",
            (median(traced_pass_s) / median(plain_pass_s) - 1.0) * 100.0,
            "%");
    return 0;
}

} // namespace perfbench
