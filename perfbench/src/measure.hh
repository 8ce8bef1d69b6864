/**
 * @file
 * Host-side measurement for the benchmark: clocks, medians, a small
 * span recorder and the one-line JSON result.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic wall clock, seconds. */
double wallSeconds();

/** CPU time of every thread of this process, seconds. */
double cpuSeconds();

/** Peak resident set of this process so far, MB (2^20 bytes). */
double peakRssMb();

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/**
 * Interquartile mean: the mean of the sample with its lowest and
 * highest quarter (n/4 values each) dropped; 0 for an empty sample.
 */
double interquartileMean(std::vector<double> v);

/** Wall and CPU time from construction (or restart()) to now. */
class Stopwatch
{
  public:
    Stopwatch() { restart(); }
    void
    restart()
    {
        wall0_ = wallSeconds();
        cpu0_ = cpuSeconds();
    }
    double wall() const { return wallSeconds() - wall0_; }
    double cpu() const { return cpuSeconds() - cpu0_; }

  private:
    double wall0_ = 0;
    double cpu0_ = 0;
};

/**
 * Spans recorded around calls into the emulator's layers.  Kept in
 * memory while the run lasts and written out once it ends.  A span's
 * parent is the span that was open when it began.
 */
class Spans
{
  public:
    /** Open a span; returns its id.  No-op (returns -1) when off. */
    int open(const std::string &name);
    /** Close the span opened as id. */
    void close(int id);

    bool enabled = false;

    struct Span
    {
        std::string name;
        double start = 0; ///< seconds since the recorder's origin
        double end = 0;
        int parent = -1;
    };
    const std::vector<Span> &spans() const { return spans_; }

    /** Total duration of spans named `name`, seconds. */
    double total(const std::string &name) const;
    /** Duration of `name` spans minus what their children cover. */
    double selfTime(const std::string &name) const;

    /** The spans as Chrome trace-event JSON (loads in Perfetto). */
    std::string chromeJson() const;

  private:
    double origin_ = wallSeconds();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Spans &s, const std::string &name) : s_(s), id_(s.open(name))
    {}
    ~Scope() { s_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &s_;
    int id_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** What one benchmark invocation reports. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;
};

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const Outcome &o);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
