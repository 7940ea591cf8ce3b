/**
 * @file
 * Chrome trace-event JSON writer (chrome://tracing / Perfetto).
 *
 * Spans record complete ("X") events with microsecond timestamps
 * relative to the writer's construction; thread ids are small
 * integers assigned in order of first appearance, with optional
 * "thread_name" metadata events.  Events are buffered in memory and
 * written as one JSON object ({"traceEvents": [...]}) by finish(),
 * using the crash-safe atomic-rename writer from common/serial.
 *
 * One process-wide writer can be installed with setActive(); the
 * OBS_SPAN machinery emits to it when present and skips a single
 * atomic load when not.
 */

#ifndef ADAPTSIM_OBS_TRACE_HH
#define ADAPTSIM_OBS_TRACE_HH

#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.hh"

namespace adaptsim::obs
{

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/** Buffering Chrome trace-event writer; see file comment. */
class TraceWriter
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit TraceWriter(std::string path);
    ~TraceWriter();   ///< finish()es if nobody did

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Record one complete ("X") event on the calling thread. */
    void completeEvent(std::string_view name, Clock::time_point start,
                       Clock::time_point end);

    /** Emit a "thread_name" metadata event for the calling thread. */
    void nameCurrentThread(const std::string &name);

    /**
     * Serialize everything and atomically write the file.  First
     * call wins; later events and calls are ignored.
     * @return true when the file was written successfully.
     */
    bool finish();

    const std::string &path() const { return path_; }

    /** Process-wide writer used by spans (nullptr when disabled). */
    static TraceWriter *active();
    static void setActive(TraceWriter *writer);

  private:
    struct Event
    {
        std::string name;
        char ph;            ///< 'X' span or 'M' metadata
        double tsMicros;
        double durMicros;   ///< X only
        int tid;
    };

    /** Small stable id for the calling thread (mutex_ held). */
    int tidLocked() ADAPTSIM_REQUIRES(mutex_);

    std::string path_;
    Clock::time_point epoch_;

    mutable Mutex mutex_;
    std::vector<Event> events_ ADAPTSIM_GUARDED_BY(mutex_);
    std::unordered_map<std::thread::id, int> tids_
        ADAPTSIM_GUARDED_BY(mutex_);
    bool finished_ ADAPTSIM_GUARDED_BY(mutex_) = false;
};

} // namespace adaptsim::obs

#endif // ADAPTSIM_OBS_TRACE_HH
