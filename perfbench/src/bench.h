/**
 * @file
 * Shared plumbing of the perfbench program: run options, the result
 * report (metrics + attempted/failed accounting), the in-memory span
 * recorder of the traced run, the seeded input generator, and small
 * statistics helpers.
 *
 * perfbench adds no instrumentation to the library: every span it
 * records wraps a call into a public function from the benchmark's own
 * files, and every counter it reports is read from a public stats
 * surface (CompileResult, TransportStats, UpstreamStats, the service
 * metrics registries).
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string outDir = ".bench_out";
};

/** Nanoseconds on the steady clock (span timestamps). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Set-up repetitions: call @p once (false on failure) until @p seconds
 * have passed, at least once.  Workloads set up before their measured
 * loop and again after it, so the set-up median samples two moments of
 * a drifting host, not one.
 */
template <class F>
bool
repeatFor(double seconds, F &&once)
{
    const Clock::time_point t0 = Clock::now();
    do {
        if (!once())
            return false;
    } while (secondsSince(t0) < seconds);
    return true;
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/** One run's result: the last stdout line is render()'s output. */
class Report
{
  public:
    /** @p verbose prints the first few failure reasons to stderr. */
    explicit Report(bool verbose = true) : verbose_(verbose) {}

    void set(const std::string &name, double value,
             const std::string &unit);

    /** Count one checked operation (attempted, passed or not). */
    void attempt(int64_t n = 1) { attempted_ += n; }

    /**
     * Count one failed operation.  The first few reasons are printed
     * to stderr so a failing run says why.
     */
    void fail(const std::string &why);

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }

    /** Failed, errored or shed share of attempted (0 when idle). */
    double failedFrac() const;

    /** Correct iff something was attempted and nothing failed. */
    bool correct() const { return attempted_ > 0 && failed_ == 0; }

    /** The result line: {"correct", "attempted", "failed", "metrics"}. */
    std::string render() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    bool verbose_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------

/** One recorded span; parent -1 is a root, req 0 is "no request". */
struct SpanRecord
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1;
    uint64_t req = 0;
};

/**
 * In-memory span recorder.  Off (the untraced run) it records nothing
 * and begin() returns -1.  Spans are written out once, at the end of
 * the run; nothing touches disk while the workload is measured.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span; returns its id (or -1 when off). */
    int64_t begin(std::string_view name, int64_t parent = -1,
                  uint64_t req = 0);

    /** Close span @p id (no-op for -1). */
    void end(int64_t id);

    /** Record an already-measured span. */
    int64_t add(std::string_view name, int64_t start_ns, int64_t end_ns,
                int64_t parent = -1, uint64_t req = 0);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Self time per span name, summed over every span of that name:
     * duration minus the part covered by its child spans.
     */
    std::map<std::string, double> selfNsByName() const;

    /** Count of spans per name. */
    std::map<std::string, int64_t> countByName() const;

    /** Write every span as one NDJSON line; false on I/O failure. */
    bool writeTo(const std::string &path,
                 const std::string &header_line) const;

  private:
    bool on_;
    std::vector<SpanRecord> spans_;
};

/** RAII span around one call (no-op when the tracer is off). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, std::string_view name, int64_t parent = -1,
               uint64_t req = 0)
        : t_(t), id_(t.begin(name, parent, req))
    {}
    ~ScopedSpan() { t_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    Tracer &t_;
    int64_t id_;
};

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/** splitmix64: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return n == 0 ? 0 : next() % n; }

  private:
    uint64_t s_;
};

/** Zipf(s) draws over ranks 0..n-1 (rank 0 hottest). */
class Zipf
{
  public:
    Zipf(size_t n, double s);
    size_t draw(Rng &rng) const;

  private:
    std::vector<double> cdf_;
};

/**
 * A digest of every input a workload derives from @p seed (cell
 * orders, simulation inputs, request streams).  The self-test pins
 * that one seed reproduces its inputs and another seed changes them.
 */
uint64_t inputDigest(const std::string &workload, uint64_t seed);

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

double median(std::vector<double> v);

/** Nearest-rank percentile (p in [0, 100]) of unsorted samples. */
double percentile(std::vector<double> v, double p);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &v);

/**
 * The fast end of per-pass times: their 5th percentile.  The host's
 * speed drifts by tens of percent within seconds, and the fast end of
 * a run is where it disturbed the program least, so it is the figure
 * that repeats from run to run.
 */
double fastEnd(const std::vector<double> &v);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Parallel capacity from a k-thread spin calibration: k threads each
 * spin the same fixed work; capacity = k * t(1 thread) / t(k threads).
 * 1.0 means the threads serialized, k means they ran in parallel.
 */
double parallelCapacity(int k);

/**
 * Pin this process (and every thread it starts later) to one CPU, the
 * highest-numbered one it may use.  Returns that CPU, or -1 when the
 * affinity could not be set.
 */
int pinToOneCpu();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
