/**
 * @file
 * The benchmark's workloads and the pieces they share: the 51 compile
 * cells (17 registry programs x LAZY/EAGER/SQUARE), their protocol
 * request lines, the compile-layer and quality reports, and the
 * in-process replay that times each serving layer's public function on
 * a workload's own request lines.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/policy.h"
#include "obs/metrics.h"
#include "service/machine_spec.h"
#include "workloads/registry.h"

#include "bench.h"

namespace perfbench {

/** One compile cell: program x policy x machine. */
struct CellSpec
{
    const square::BenchmarkInfo *info = nullptr;
    size_t program = 0;       ///< index into benchmarkRegistry()
    const char *policy = "";  ///< protocol policy name
    square::SquareConfig cfg;
    square::MachineSpec spec; ///< the paper machine for the regime
};

/**
 * The 51 cells in registry order: each program on its paper NISQ
 * lattice (5x5 for NISQ-scale programs, boundaryEdge^2 otherwise), or
 * with @p ft on Machine::ftBraid(boundaryEdge, boundaryEdge).
 */
std::vector<CellSpec> cellSpecs(bool ft);

/**
 * The protocol request for a cell, without an id.  NISQ cells omit the
 * machine (the server defaults to the same paper machine); FT cells
 * name it.
 */
std::string cellRequest(const CellSpec &cell);

/** Build every registry program (one "workloads.build" span). */
std::vector<square::Program> buildPrograms(Tracer &tracer);

/**
 * Compile each cell once.  With the tracer on, each compile is a
 * "compile" span whose children are the compiler's own phases
 * ("ir.analysis", "core.walk"), received through CompileOptions::phases.
 */
std::vector<square::CompileResult>
compileCells(const std::vector<CellSpec> &cells,
             const std::vector<square::Program> &programs, Tracer &tracer);

/** The end-to-end quality geomeans over one pass of cell results. */
void reportQuality(const std::vector<CellSpec> &cells,
                   const std::vector<square::CompileResult> &results,
                   Report &rep);

/** The per-layer compile counts summed over one pass of cell results. */
void reportCompileCounts(const std::vector<square::CompileResult> &results,
                         Report &rep);

/**
 * The compile layers' self times from the recorded spans: program
 * builds per build, analysis and walk per pass of @p passes, and walk
 * per gate (@p gates_per_pass).  Returns the compile spans' own self
 * time (compile() minus its phases) per compile, microseconds.
 */
double reportCompileSpans(const Tracer &tracer, int64_t passes,
                          int64_t gates_per_pass, Report &rep);

/** Scheduled gates summed over @p results. */
int64_t totalGates(const std::vector<square::CompileResult> &results);

/**
 * Replay @p lines (request lines without ids) through each serving
 * layer's public function in-process, one span per round: parseJsonLine,
 * buildRequest, ShardRouter::resolve, parseCacheKeyHex,
 * CompileService::tryServePublished, formatReplyLineTo,
 * HashRing::ownerIndex, formatForwardedRequestTo, and the shard's
 * CompileServer::handleLineTo — on the router-forwarded form of each
 * line when @p forwarded (the serve_warm path), on the line itself
 * otherwise.  Every line is compiled once first so lookups hit.  Reports
 * each layer's self time per call and returns the sum of the per-call
 * times of the layers a request crosses (router layers + shard
 * handler when @p forwarded, the shard handler otherwise).
 */
double replayLayers(const std::vector<std::string> &lines, bool forwarded,
                    Tracer &tracer, Report &rep);

/** Counter / histogram readers over a metrics registry snapshot. */
int64_t counterValue(const square::obs::Registry &reg,
                     const std::string &name);
square::obs::HistogramSnapshot
histogramValue(const square::obs::Registry &reg, const std::string &name);

/** The workloads; each returns 0, or non-zero when it could not run. */
int runCompile(const Options &opt, Report &rep, Tracer &tracer, bool ft);
int runServeWarm(const Options &opt, Report &rep, Tracer &tracer);
int runServeChurn(const Options &opt, Report &rep, Tracer &tracer);

/** Input digests of the workloads (see inputDigest). */
uint64_t compileDigest(uint64_t seed, bool ft);
uint64_t serveWarmDigest(uint64_t seed);
uint64_t serveChurnDigest(uint64_t seed);

/**
 * Self-test of the checks: injected wrong answers (a flipped output
 * bit, a changed count, a changed reply field, a dropped reply, a shed)
 * must each be counted as failed and never pass, and inputs must follow
 * the seed.  False (with the reason on stderr) when any check lets a
 * wrong answer through.
 */
bool selfTest(uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
