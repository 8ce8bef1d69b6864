#include "measure.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench
{

double
wallSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
interquartileMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t lo = v.size() / 4, hi = v.size() - lo;
    double sum = 0;
    for (size_t i = lo; i < hi; ++i)
        sum += v[i];
    return sum / static_cast<double>(hi - lo);
}

int
Spans::open(const std::string &name)
{
    if (!enabled)
        return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, wallSeconds() - origin_, 0,
                          stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
}

void
Spans::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<size_t>(id)].end = wallSeconds() - origin_;
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

double
Spans::total(const std::string &name) const
{
    double t = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            t += s.end - s.start;
    return t;
}

double
Spans::selfTime(const std::string &name) const
{
    double t = total(name);
    for (const Span &s : spans_)
        if (s.parent >= 0 &&
            spans_[static_cast<size_t>(s.parent)].name == name)
            t -= s.end - s.start;
    return t;
}

std::string
Spans::chromeJson() const
{
    std::string out = "{\"traceEvents\": [\n";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %d}}",
                      i ? ",\n" : "", s.name.c_str(), s.start * 1e6,
                      (s.end - s.start) * 1e6, i, s.parent);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

std::string
resultJson(const Outcome &o)
{
    std::string out = "{\"correct\": ";
    out += o.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(o.attempted);
    out += ", \"failed\": " + std::to_string(o.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < o.metrics.size(); ++i) {
        const Metric &m = o.metrics[i];
        // every digit the double carries; JSON has no NaN/inf
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
