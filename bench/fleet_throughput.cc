/**
 * @file
 * Fleet-compilation throughput: the production-scale batch scenario.
 *
 * Compiles a mixed batch (SHA2 + SALSA20 + Belle under the SQUARE
 * policy, each replicated --repeat times) on WorkerPools of increasing
 * size — the pool the compile service runs every queued miss on — and
 * reports aggregate gates/s, per-job latency percentiles, and scaling
 * versus one worker.  Compilations are independent and embarrassingly
 * parallel, so on an N-core host the batch should scale close to
 * linearly until workers exceed cores.  Replicas share one immutable
 * Program, and each pool size shares one AnalysisCache across its
 * batch, so every unique workload is analyzed once per run.
 *
 * Pass --square_json=PATH to emit a BENCH_fleet_throughput.json row per
 * worker count (plus the host's hardware_concurrency, without which the
 * scaling numbers cannot be interpreted).  --workers=1,2,4,8 overrides
 * the pool sizes; --repeat=N the batch replication; --smoke shrinks the
 * batch for CI.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "fleet/worker_pool.h"
#include "ir/analysis_cache.h"

using namespace square;
using namespace square::bench;

namespace {

using Clock = std::chrono::steady_clock;

/** One compilation of the batch: program x paper machine x policy. */
struct Job
{
    std::shared_ptr<const Program> program;
    uint64_t programFp = 0;
    const BenchmarkInfo *info = nullptr;
    SquareConfig cfg;
};

/** Outcome of one job. */
struct JobResult
{
    bool failed = false;
    /** Wall time of the compile call (analysis + build + compile). */
    double millis = 0;
    /** Issued instructions: gates + swaps. */
    int64_t issued = 0;
};

/** Aggregate outcome of one pool size. */
struct RunResult
{
    double wallMillis = 0;
    double gatesPerSec = 0;
    double p50Millis = 0;
    double p99Millis = 0;
    int failures = 0;
};

std::vector<Job>
mixedBatch(int repeat)
{
    // One immutable Program per unique workload, shared by replicas.
    std::vector<Job> jobs;
    for (const char *name : {"SHA2", "SALSA20", "Belle"}) {
        auto prog = std::make_shared<const Program>(makeBenchmark(name));
        const uint64_t fp = prog->fingerprint();
        for (int r = 0; r < repeat; ++r)
            jobs.push_back(
                Job{prog, fp, &findBenchmark(name), SquareConfig::square()});
    }
    return jobs;
}

JobResult
runJob(const Job &job, AnalysisCache &analysis)
{
    JobResult out;
    Clock::time_point t0 = Clock::now();
    try {
        std::shared_ptr<const ProgramAnalysis> shared =
            analysis.get(*job.program, job.programFp);
        Machine machine = paperNisqMachine(*job.info);
        CompileOptions options;
        options.analysis = shared.get();
        CompileResult r = compile(*job.program, machine, job.cfg, options);
        out.issued = r.gates + r.swaps;
    } catch (const std::exception &) {
        out.failed = true;
    }
    out.millis = millisSince(t0);
    return out;
}

/** Post every job to a fresh @p workers-wide pool; wait for all. */
RunResult
runBatch(const std::vector<Job> &jobs, int workers)
{
    AnalysisCache analysis;
    std::vector<JobResult> results(jobs.size());
    std::mutex m;
    std::condition_variable cv;
    size_t outstanding = jobs.size();

    WorkerPool pool(workers);
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < jobs.size(); ++i) {
        pool.post([&, i] {
            JobResult r = runJob(jobs[i], analysis);
            std::lock_guard<std::mutex> lock(m);
            results[i] = r;
            if (--outstanding == 0)
                cv.notify_all();
        });
    }
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&outstanding] { return outstanding == 0; });
    }
    RunResult run;
    run.wallMillis = millisSince(t0);

    int64_t issued = 0;
    std::vector<double> latencies;
    for (const JobResult &r : results) {
        if (r.failed) {
            ++run.failures;
            continue;
        }
        issued += r.issued;
        latencies.push_back(r.millis);
    }
    std::sort(latencies.begin(), latencies.end());
    run.p50Millis = percentileNearestRank(latencies, 50.0);
    run.p99Millis = percentileNearestRank(latencies, 99.0);
    if (run.wallMillis > 0)
        run.gatesPerSec =
            static_cast<double>(issued) / (run.wallMillis / 1000.0);
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = extractJsonPath(argc, argv);
    std::vector<int> worker_counts = {1, 2, 4, 8};
    int repeat = 8;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--workers=", 10) == 0) {
            worker_counts.clear();
            for (const char *p = argv[i] + 10; *p;) {
                worker_counts.push_back(std::atoi(p));
                while (*p && *p != ',')
                    ++p;
                if (*p == ',')
                    ++p;
            }
        } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
            repeat = std::atoi(argv[i] + 9);
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            repeat = 2;
            worker_counts = {1, 4};
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 1;
        }
    }

    const unsigned cpus = std::thread::hardware_concurrency();
    printHeader("Fleet compile throughput, mixed batch",
                "the production-scale batch scenario");
    warnIfSingleCore(cpus);
    std::printf("batch: (SHA2 + SALSA20 + Belle) x SQUARE x %d = %d "
                "jobs; host cpus: %u\n\n",
                repeat, repeat * 3, cpus);
    std::printf("%8s %10s %14s %10s %10s %10s %8s\n", "workers",
                "wall ms", "fleet gates/s", "p50 ms", "p99 ms", "fail",
                "speedup");
    printRule(76);

    std::vector<Job> jobs = mixedBatch(repeat);
    JsonReport report;
    report.benchmark = "fleet_throughput";
    report.unit = "gates_per_second";
    report.header.push_back(jsonInt("cpus", cpus));
    report.header.push_back(jsonInt("jobs", static_cast<int64_t>(jobs.size())));

    // Run every pool size first; the speedup baseline is the 1-worker
    // run when present, else the first run (so custom --workers lists
    // still report meaningful scaling).
    std::vector<RunResult> results;
    results.reserve(worker_counts.size());
    for (int workers : worker_counts)
        results.push_back(runBatch(jobs, workers));
    double base_gps = results.empty() ? 0.0 : results.front().gatesPerSec;
    for (size_t i = 0; i < results.size(); ++i) {
        if (worker_counts[i] == 1) {
            base_gps = results[i].gatesPerSec;
            break;
        }
    }
    for (size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const int workers = worker_counts[i];
        double speedup = base_gps > 0 ? r.gatesPerSec / base_gps : 0.0;
        std::printf("%8d %10.1f %14.0f %10.2f %10.2f %10d %7.2fx\n",
                    workers, r.wallMillis, r.gatesPerSec,
                    r.p50Millis, r.p99Millis, r.failures, speedup);
        report.addRow({jsonInt("workers", workers),
                       jsonNum("wall_ms", r.wallMillis, 1),
                       jsonNum("fleet_gates_per_s", r.gatesPerSec, 0),
                       jsonNum("p50_ms", r.p50Millis, 2),
                       jsonNum("p99_ms", r.p99Millis, 2),
                       jsonInt("failures", r.failures),
                       jsonNum("speedup_vs_1", speedup, 2)});
    }
    printRule(76);
    std::printf("\nNote: speedup is aggregate gates/s versus the "
                "1-worker run of the same batch;\nexpect ~min(workers, "
                "cpus) on an otherwise idle host.\n");

    if (!json_path.empty())
        report.writeTo(json_path);
    return 0;
}
