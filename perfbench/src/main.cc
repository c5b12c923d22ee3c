/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--commit TEXT] [--out DIR]
 *
 * Runs one workload for S seconds and prints, as its last stdout line,
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics from the recorded
 * spans with --trace 1 (a separate run, never the one the end-to-end
 * numbers come from).  The line before it describes the run (commit,
 * build, compiler, seed, run length, sample counts, measured parallel
 * capacity).  The traced run also writes its spans to
 * DIR/<workload>-seed<N>.spans.ndjson.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

const char *const kWorkloads[] = {"compile_nisq", "compile_ft",
                                  "serve_warm", "serve_churn"};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "compile_nisq|compile_ft|serve_warm|serve_churn "
                 "--seed N --seconds S --trace 0|1 [--commit TEXT] "
                 "[--out DIR]\n",
                 why);
    return 2;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out;
}

} // namespace

namespace perfbench {

uint64_t
inputDigest(const std::string &workload, uint64_t seed)
{
    if (workload == "compile_nisq")
        return compileDigest(seed, false);
    if (workload == "compile_ft")
        return compileDigest(seed, true);
    if (workload == "serve_warm")
        return serveWarmDigest(seed);
    return serveChurnDigest(seed);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    Options opt;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *v = i + 1 < argc ? argv[++i] : nullptr;
        if (v == nullptr)
            return usage(("missing value for " + arg).c_str());
        if (arg == "--workload")
            opt.workload = v;
        else if (arg == "--seed")
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(v);
        else if (arg == "--trace")
            opt.trace = std::strcmp(v, "1") == 0;
        else if (arg == "--commit")
            commit = v;
        else if (arg == "--out")
            opt.outDir = v;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || opt.workload == w;
    if (!known)
        return usage(("unknown workload \"" + opt.workload + "\"").c_str());
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");

    Report rep;
    // The checks' own self-test runs first, untimed: a check that
    // lets an injected wrong answer through makes this run incorrect.
    rep.attempt();
    if (!selfTest(opt.seed))
        rep.fail("self-test of the checks failed");

    // Capacity is the host's, measured before pinning.  Then the whole
    // run (servers, workers, load generator) shares one CPU: on shared
    // virtual machines parallel capacity can swing between ~1x and ~4x
    // from minute to minute, and on one CPU the serving figures do not
    // flip with it.
    const double capacity =
        parallelCapacity(static_cast<int>(std::thread::hardware_concurrency()));
    const int cpu = pinToOneCpu();

    Tracer tracer(opt.trace);
    int rc = 0;
    if (opt.workload == "compile_nisq")
        rc = runCompile(opt, rep, tracer, false);
    else if (opt.workload == "compile_ft")
        rc = runCompile(opt, rep, tracer, true);
    else if (opt.workload == "serve_warm")
        rc = runServeWarm(opt, rep, tracer);
    else
        rc = runServeChurn(opt, rep, tracer);
    if (rc != 0) {
        std::fprintf(stderr, "perfbench: workload %s could not run\n",
                     opt.workload.c_str());
        return rc;
    }

    if (!opt.trace) {
        rep.set("peak_rss_mb", peakRssMb(), "MiB");
        rep.set("ok_frac", 1.0 - rep.failedFrac(), "fraction");
    } else {
        rep.set("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
    }

    char meta[1024];
    std::snprintf(
        meta, sizeof meta,
        "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %.3f, \"trace\": %d, \"commit\": \"%s\", "
        "\"build_type\": \"%s\", \"compiler\": \"%s\", \"cpus\": %u, "
        "\"parallel_capacity\": %.3f, \"pinned_cpu\": %d, "
        "\"attempted\": %lld, "
        "\"failed\": %lld, \"input_digest\": \"%016llx\"}}",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.seconds, opt.trace ? 1 : 0, jsonEscape(commit).c_str(),
        PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
        std::thread::hardware_concurrency(), capacity, cpu,
        static_cast<long long>(rep.attempted()),
        static_cast<long long>(rep.failed()),
        static_cast<unsigned long long>(inputDigest(opt.workload, opt.seed)));

    if (opt.trace && !opt.outDir.empty()) {
        ::mkdir(opt.outDir.c_str(), 0755);
        const std::string path = opt.outDir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + ".spans.ndjson";
        if (!tracer.writeTo(path, meta))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
    }
    std::printf("%s\n%s\n", meta, rep.render().c_str());
    std::fflush(stdout);
    return 0;
}
