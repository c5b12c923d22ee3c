#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    metrics_[name] = Value{value, unit};
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    if (verbose_ && failed_ <= 5)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

double
Report::failedFrac() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

std::string
Report::render() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : metrics_) {
        char num[64];
        // %.17g keeps every digit the measurement has.
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(v.value) ? v.value : 0.0);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
               v.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

int64_t
Tracer::begin(std::string_view name, int64_t parent, uint64_t req)
{
    if (!on_)
        return -1;
    spans_.push_back(
        SpanRecord{std::string(name), nowNs(), 0, parent, req});
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
Tracer::end(int64_t id)
{
    if (id >= 0)
        spans_[static_cast<size_t>(id)].endNs = nowNs();
}

int64_t
Tracer::add(std::string_view name, int64_t start_ns, int64_t end_ns,
            int64_t parent, uint64_t req)
{
    if (!on_)
        return -1;
    spans_.push_back(
        SpanRecord{std::string(name), start_ns, end_ns, parent, req});
    return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double>
Tracer::selfNsByName() const
{
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const SpanRecord &s : spans_) {
        if (s.parent >= 0)
            child_ns[static_cast<size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs);
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        self[s.name] += static_cast<double>(s.endNs - s.startNs) -
                        child_ns[i];
    }
    return self;
}

std::map<std::string, int64_t>
Tracer::countByName() const
{
    std::map<std::string, int64_t> n;
    for (const SpanRecord &s : spans_)
        ++n[s.name];
    return n;
}

bool
Tracer::writeTo(const std::string &path,
                const std::string &header_line) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "%s\n", header_line.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %lld, \"req\": %llu}\n",
                     i, s.name.c_str(), static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.req));
    }
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------

Zipf::Zipf(size_t n, double s)
{
    cdf_.reserve(n);
    double sum = 0;
    for (size_t k = 1; k <= n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k), s);
        cdf_.push_back(sum);
    }
    for (double &c : cdf_)
        c /= sum;
}

size_t
Zipf::draw(Rng &rng) const
{
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
fastEnd(const std::vector<double> &v)
{
    return percentile(v, 5);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

/** Fixed integer work that the optimizer cannot fold away. */
uint64_t
spin(uint64_t iters)
{
    uint64_t x = 0x12345678;
    for (uint64_t i = 0; i < iters; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
}

double
timeThreads(int k, uint64_t iters)
{
    std::atomic<uint64_t> sink{0};
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int i = 0; i < k; ++i)
        threads.emplace_back([&] { sink += spin(iters); });
    for (std::thread &t : threads)
        t.join();
    return secondsSince(t0) + (sink.load() == 42 ? 1e-12 : 0.0);
}

} // namespace

double
parallelCapacity(int k)
{
    constexpr uint64_t kIters = 20'000'000;
    // Best of three on each side: capacity is a property of the host,
    // and a single preempted probe would understate it.
    double one = 1e9, many = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
        one = std::min(one, timeThreads(1, kIters));
        many = std::min(many, timeThreads(k, kIters));
    }
    return static_cast<double>(k) * one / many;
}

int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return -1;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
    }
    return -1;
}

} // namespace perfbench
