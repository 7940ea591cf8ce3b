#include "obs/obs.hh"

#include <cstdlib>
#include <iomanip>
#include <mutex>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "common/table.hh"

namespace adaptsim::obs
{

namespace
{

void
atExitReport()
{
    if (metricsEnabled()) {
        report(stderr);
        const std::string json_path = metricsJsonPath();
        if (!json_path.empty() &&
            !atomicWriteFile(json_path, metricsJson()))
            warn("obs: cannot write metrics JSON to ", json_path);
    }
    flushTrace();
}

std::string
secs(double v)
{
    std::ostringstream os;
    if (v >= 100.0)
        os << std::fixed << std::setprecision(0) << v << "s";
    else if (v >= 0.1)
        os << std::fixed << std::setprecision(2) << v << "s";
    else
        os << std::fixed << std::setprecision(2) << v * 1e3 << "ms";
    return os.str();
}

} // namespace

Histogram &
spanHistogram(const char *name)
{
    return Registry::global().histogram(std::string(name) +
                                        ".seconds");
}

void
initFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        // Touch the registry first so it outlives the atexit hook.
        Registry::global();
        if (const std::string path = traceFile(); !path.empty()) {
            // Deliberately leaked: spans may still fire during
            // static destruction; flushTrace() persists the events.
            auto *writer = new TraceWriter(path);
            writer->nameCurrentThread("main");
            TraceWriter::setActive(writer);
        }
        std::atexit(&atExitReport);
    });
}

void
report(std::FILE *out)
{
    const Snapshot snap = Registry::global().snapshot();
    if (snap.counters.empty() && snap.histograms.empty())
        return;

    std::ostringstream os;
    os << "\n=== adaptsim metrics ===\n";

    // Derived headline: worker utilisation across all pools.
    std::uint64_t busy = 0, capacity = 0;
    for (const auto &[name, value] : snap.counters) {
        if (name == "pool/busy.micros")
            busy = value;
        else if (name == "pool/capacity.micros")
            capacity = value;
    }
    if (capacity > 0) {
        os << "thread-pool utilisation: " << std::fixed
           << std::setprecision(1)
           << 100.0 * double(busy) / double(capacity) << "% ("
           << secs(double(busy) * 1e-6) << " busy of "
           << secs(double(capacity) * 1e-6) << " capacity)\n";
    }

    if (!snap.counters.empty()) {
        TextTable table;
        table.setHeader({"counter", "value"});
        for (const auto &[name, value] : snap.counters)
            table.addRow({name, TextTable::num(value)});
        os << "\n" << table.render();
    }

    if (!snap.histograms.empty()) {
        TextTable table;
        table.setHeader(
            {"timer", "count", "total", "mean", "min", "max"});
        for (const auto &[name, st] : snap.histograms) {
            table.addRow({name, TextTable::num(st.count),
                          secs(st.sum), secs(st.mean()),
                          secs(st.min), secs(st.max)});
        }
        os << "\n" << table.render();
    }

    // One locked write: the table never interleaves with warn() or
    // inform() lines from other threads.
    lockedWrite(out, os.str());
}

std::string
metricsJson()
{
    const Snapshot snap = Registry::global().snapshot();
    std::ostringstream os;
    os.precision(17);

    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : snap.counters) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":" << value;
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, st] : snap.histograms) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":{\"count\":" << st.count << ",\"sum\":" << st.sum
           << ",\"min\":" << st.min
           << ",\"max\":" << st.max << '}';
        first = false;
    }
    os << "}}\n";
    return os.str();
}

void
flushTrace()
{
    auto *writer = TraceWriter::active();
    if (!writer)
        return;
    if (writer->finish())
        inform("obs: trace written to ", writer->path());
    else
        warn("obs: cannot write trace to ", writer->path());
}

} // namespace adaptsim::obs
