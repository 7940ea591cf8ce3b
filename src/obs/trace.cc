#include "obs/trace.hh"

#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "common/serial.hh"

namespace adaptsim::obs
{

namespace
{

std::atomic<TraceWriter *> active_writer{nullptr};

double
microsBetween(TraceWriter::Clock::time_point a,
              TraceWriter::Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

TraceWriter::TraceWriter(std::string path)
    : path_(std::move(path)), epoch_(Clock::now())
{
}

TraceWriter::~TraceWriter()
{
    finish();
}

TraceWriter *
TraceWriter::active()
{
    return active_writer.load(std::memory_order_acquire);
}

void
TraceWriter::setActive(TraceWriter *writer)
{
    active_writer.store(writer, std::memory_order_release);
}

int
TraceWriter::tidLocked()
{
    const auto id = std::this_thread::get_id();
    const auto it = tids_.find(id);
    if (it != tids_.end())
        return it->second;
    const int tid = static_cast<int>(tids_.size()) + 1;
    tids_.emplace(id, tid);
    return tid;
}

void
TraceWriter::completeEvent(std::string_view name,
                           Clock::time_point start,
                           Clock::time_point end)
{
    MutexLock lock(mutex_);
    if (finished_)
        return;
    Event e;
    e.name.assign(name.data(), name.size());
    e.ph = 'X';
    e.tsMicros = microsBetween(epoch_, start);
    e.durMicros = microsBetween(start, end);
    e.tid = tidLocked();
    events_.push_back(std::move(e));
}

void
TraceWriter::nameCurrentThread(const std::string &name)
{
    MutexLock lock(mutex_);
    if (finished_)
        return;
    Event e;
    e.name = name;
    e.ph = 'M';
    e.tsMicros = 0.0;
    e.durMicros = 0.0;
    e.tid = tidLocked();
    events_.push_back(std::move(e));
}

bool
TraceWriter::finish()
{
    std::vector<Event> events;
    {
        MutexLock lock(mutex_);
        if (finished_)
            return true;
        finished_ = true;
        events.swap(events_);
    }

    std::string json;
    json.reserve(events.size() * 128 + 64);
    json += "{\"traceEvents\":[";
    char buf[160];
    bool first = true;
    for (const auto &e : events) {
        if (!first)
            json += ',';
        first = false;
        if (e.ph == 'M') {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"thread_name\",\"ph\":\"M\","
                          "\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"",
                          e.tid);
            json += buf;
            json += jsonEscape(e.name);
            json += "\"}}";
        } else {
            json += "{\"name\":\"";
            json += jsonEscape(e.name);
            std::snprintf(buf, sizeof(buf),
                          "\",\"cat\":\"adaptsim\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,"
                          "\"pid\":1,\"tid\":%d}",
                          e.tsMicros, e.durMicros, e.tid);
            json += buf;
        }
    }
    json += "],\"displayTimeUnit\":\"ms\"}\n";

    return atomicWriteFile(path_, json);
}

} // namespace adaptsim::obs
