#include "obs/chrome_trace.hh"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "base/json.hh"
#include "net/network.hh"
#include "obs/trace.hh"

namespace transputer::obs
{

namespace
{

/** Trace-event timestamps are microseconds; ticks are nanoseconds. */
double
us(Tick ns)
{
    return static_cast<double>(ns) / 1000.0;
}

std::string
wdescName(uint64_t wdesc)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "W#%06llx%s",
                  static_cast<unsigned long long>(wdesc & ~1ull),
                  (wdesc & 1) ? " lo" : " hi");
    return buf;
}

/** An emitter for one node's track (pid 1, tid = node index + 1). */
class Track
{
  public:
    Track(JsonWriter &w, int tid) : w_(w), tid_(tid) {}

    void
    meta(const std::string &name)
    {
        open("M", 0)
            .field("name", "thread_name")
            .key("args")
            .beginObject()
            .field("name", name)
            .end()
            .end();
    }

    void
    slice(Tick start, Tick end, uint64_t wdesc)
    {
        if (end < start)
            end = start;
        open("X", start)
            .field("dur", us(end - start))
            .field("name", wdescName(wdesc))
            .field("cat", "proc")
            .end();
    }

    void
    instant(Tick when, const char *name)
    {
        open("i", when)
            .field("s", "t")
            .field("name", name)
            .field("cat", "sched")
            .end();
    }

    void
    flow(Tick when, bool start, uint64_t id, uint32_t link)
    {
        flowEnd(start, when)
            .field("id", id)
            .field("name", "link" + std::to_string(link))
            .field("cat", "link")
            .end();
    }

    /** A mid-path flow step: one routed hop through a switch, so a
     *  virtual channel renders as an arrow chain across every relay
     *  (cat "route" keeps it filterable from the link arrows). */
    void
    flowStep(Tick when, uint64_t id, uint32_t port)
    {
        open("t", when)
            .field("id", id)
            .field("name", "hop.port" + std::to_string(port))
            .field("cat", "route")
            .end();
    }

    void
    routeFlow(Tick when, bool start, uint64_t id)
    {
        flowEnd(start, when)
            .field("id", id)
            .field("name", "vchan")
            .field("cat", "route")
            .end();
    }

  private:
    JsonWriter &
    open(const char *ph, Tick when)
    {
        return w_.beginObject()
            .field("ph", ph)
            .field("pid", 1)
            .field("tid", tid_)
            .field("ts", us(when));
    }

    /** A flow start ("s") or finish ("f", bound to the enclosing
     *  slice's end). */
    JsonWriter &
    flowEnd(bool start, Tick when)
    {
        open(start ? "s" : "f", when);
        return start ? w_ : w_.field("bp", "e");
    }

    JsonWriter &w_;
    int tid_;
};

} // namespace

void
chromeTrace(net::Network &net, std::ostream &os, RingSource src)
{
    JsonWriter w(os, 2);
    w.beginObject().key("traceEvents").beginArray();
    for (size_t i = 0; i < net.size(); ++i) {
        auto &node = net.node(static_cast<int>(i));
        Track track(w, static_cast<int>(i) + 1);
        track.meta(node.name());
        const TraceBuffer *buf = src == RingSource::Flight
                                     ? node.flightBuffer()
                                     : node.traceBuffer();
        if (!buf)
            continue;
        // replay scheduler boundaries into occupancy slices; a Run
        // record both ends the previous slice (preemption) and starts
        // the next one
        bool running = false;
        Tick sliceStart = 0;
        uint64_t sliceWdesc = 0;
        // an output abort opens a retransmit arrow that the next
        // message started on the same link closes; the id space has
        // the top bit set to stay clear of the message flow ids
        std::map<uint32_t, uint64_t> pendingAbort;
        uint64_t abortSeq = 0;
        buf->forEach([&](const Record &r) {
            switch (r.ev) {
              case Ev::Run:
                if (running)
                    track.slice(sliceStart, r.when, sliceWdesc);
                running = true;
                sliceStart = r.when;
                sliceWdesc = r.a;
                break;
              case Ev::Idle:
              case Ev::Halt:
                if (running)
                    track.slice(sliceStart, r.when, sliceWdesc);
                running = false;
                if (r.ev == Ev::Halt)
                    track.instant(r.when, evName(r.ev));
                break;
              case Ev::LinkMsgOut: {
                track.flow(r.when, true, r.b, r.c);
                const auto it = pendingAbort.find(r.c);
                if (it != pendingAbort.end()) {
                    track.flow(r.when, false, it->second, r.c);
                    pendingAbort.erase(it);
                }
                break;
              }
              case Ev::LinkMsgIn:
                track.flow(r.when, false, r.b, r.c);
                break;
              case Ev::LinkAbortOut: {
                track.instant(r.when, evName(r.ev));
                const uint64_t id = (1ull << 63) |
                                    (static_cast<uint64_t>(r.c) << 40) |
                                    ++abortSeq;
                pendingAbort[r.c] = id;
                track.flow(r.when, true, id, r.c);
                break;
              }
              case Ev::RouteSend:
                track.routeFlow(r.when, true, r.a);
                break;
              case Ev::RouteFwd:
                track.flowStep(r.when, r.a, r.c);
                break;
              case Ev::RouteDeliver:
                track.routeFlow(r.when, false, r.a);
                break;
              case Ev::Timeslice:
              case Ev::Interrupt:
              case Ev::Rendezvous:
              case Ev::LinkAbortIn:
              case Ev::FaultDrop:
              case Ev::FaultCorrupt:
              case Ev::FaultStall:
              case Ev::FaultKill:
              case Ev::Deopt:
              case Ev::RouteRetransmit:
              case Ev::RouteReroute:
              case Ev::RouteDrop:
              case Ev::RouteUndeliverable:
                track.instant(r.when, evName(r.ev));
                break;
              default:
                break; // Ready/WaitChan/WaitTimer/LinkByte/LinkAck:
                       // recorded for programmatic analysis, too noisy
                       // for the timeline
            }
        });
        if (running)
            track.slice(sliceStart,
                        std::max(sliceStart, node.localTime()),
                        sliceWdesc);
    }
    w.end().field("displayTimeUnit", "ns").end();
}

std::string
chromeTrace(net::Network &net)
{
    std::ostringstream os;
    chromeTrace(net, os, RingSource::Trace);
    return os.str();
}

bool
writeChromeTrace(net::Network &net, const std::string &path,
                 RingSource src)
{
    std::ofstream out(path);
    if (!out)
        return false;
    chromeTrace(net, out, src);
    return static_cast<bool>(out);
}

} // namespace transputer::obs
