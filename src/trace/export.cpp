#include "trace/export.h"

#include <sstream>

namespace optimus {

namespace {

/** Seconds -> integer-friendly microseconds for trace timestamps. */
double
toMicros(double seconds)
{
    return seconds * 1e6;
}

} // namespace

JsonValue
chromeTraceJson(const TraceSession &session)
{
    JsonValue doc = JsonValue::object();
    JsonValue events = JsonValue::array();

    // Process/thread metadata ("M" events) so Perfetto labels the
    // two process groups and every lane instead of showing bare ids.
    auto processName = [&events](int pid, const std::string &name) {
        JsonValue e = JsonValue::object();
        e.set("ph", JsonValue::string("M"));
        e.set("name", JsonValue::string("process_name"));
        e.set("pid", JsonValue::number(double(pid)));
        JsonValue args = JsonValue::object();
        args.set("name", JsonValue::string(name));
        e.set("args", std::move(args));
        events.push(std::move(e));
    };
    processName(0, "optimus model timeline");
    if (!session.counterSamples().empty())
        processName(1, "optimus counters");

    const std::vector<TraceLane> &lanes = session.lanes();
    for (size_t i = 0; i < lanes.size(); ++i) {
        JsonValue e = JsonValue::object();
        e.set("ph", JsonValue::string("M"));
        e.set("name", JsonValue::string("thread_name"));
        e.set("pid", JsonValue::number(0));
        e.set("tid", JsonValue::number(double(i)));
        JsonValue args = JsonValue::object();
        args.set("name", JsonValue::string(lanes[i].name));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }

    for (const TraceSpan &s : session.spans()) {
        JsonValue e = JsonValue::object();
        e.set("ph", JsonValue::string("X"));
        e.set("name", JsonValue::string(s.name));
        e.set("cat", JsonValue::string(s.category));
        e.set("pid", JsonValue::number(0));
        e.set("tid", JsonValue::number(double(s.lane)));
        e.set("ts", JsonValue::number(toMicros(s.start)));
        e.set("dur", JsonValue::number(toMicros(s.duration)));
        JsonValue args = JsonValue::object();
        if (s.microbatch >= 0)
            args.set("microbatch",
                     JsonValue::number(double(s.microbatch)));
        if (s.layer >= 0)
            args.set("layer", JsonValue::number(double(s.layer)));
        if (s.step >= 0)
            args.set("step", JsonValue::number(double(s.step)));
        if (s.isKernel()) {
            args.set("flops", JsonValue::number(s.flops));
            args.set("dram_bytes", JsonValue::number(s.dramBytes));
            args.set("launch_overhead_s",
                     JsonValue::number(s.overhead));
            args.set("bound", JsonValue::string(s.bound));
        }
        e.set("args", std::move(args));
        events.push(std::move(e));
    }

    // Counter series: one "C" event per sample, sequenced by index so
    // search-progress gauges (e.g. DSE best objective) plot as steps.
    const std::vector<CounterSample> &samples =
        session.counterSamples();
    for (size_t i = 0; i < samples.size(); ++i) {
        JsonValue e = JsonValue::object();
        e.set("ph", JsonValue::string("C"));
        e.set("name", JsonValue::string(samples[i].name));
        e.set("pid", JsonValue::number(1));
        e.set("ts", JsonValue::number(double(i)));
        JsonValue args = JsonValue::object();
        args.set("value", JsonValue::number(samples[i].value));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }

    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", JsonValue::string("ms"));
    return doc;
}

std::string
kernelCsv(const TraceSession &session)
{
    Table t({"lane", "name", "category", "start_us", "duration_us",
             "microbatch", "layer", "step", "flops", "dram_bytes",
             "launch_overhead_us", "bound"});
    const std::vector<TraceLane> &lanes = session.lanes();
    for (const TraceSpan &s : session.spans()) {
        if (!s.isKernel())
            continue;
        t.beginRow()
            .cell(lanes.at(static_cast<size_t>(s.lane)).name)
            .cell(s.name)
            .cell(s.category)
            .cell(s.start * 1e6, 4)
            .cell(s.duration * 1e6, 4)
            .cell(s.microbatch)
            .cell(s.layer)
            .cell(s.step)
            .cell(s.flops, 0)
            .cell(s.dramBytes, 0)
            .cell(s.overhead * 1e6, 3)
            .cell(s.bound);
        t.endRow();
    }
    std::ostringstream os;
    t.printCsv(os);
    return os.str();
}

Table
categorySummaryTable(const TraceSession &session)
{
    std::map<std::string, double> totals = session.categoryTotals();
    std::map<std::string, long long> counts;
    for (const TraceSpan &s : session.spans())
        ++counts[s.category];
    double grand = 0.0;
    for (const auto &kv : totals)
        grand += kv.second;

    Table t({"category", "time (s)", "% of time", "spans"});
    for (const auto &kv : totals) {
        t.beginRow()
            .cell(kv.first)
            .cell(kv.second, 6)
            .cell(grand > 0.0 ? 100.0 * kv.second / grand : 0.0, 1)
            .cell(counts[kv.first]);
        t.endRow();
    }
    return t;
}

Table
counterSummaryTable(const TraceSession &session)
{
    Table t({"counter", "value"});
    for (const auto &kv : session.counters()) {
        t.beginRow().cell(kv.first).cell(kv.second, 6);
        t.endRow();
    }
    return t;
}

std::string
summaryText(const TraceSession &session)
{
    std::ostringstream os;
    os << session.spans().size() << " spans on "
       << session.lanes().size() << " lanes, virtual makespan "
       << session.makespan() << " s\n";
    if (!session.spans().empty()) {
        os << "\n";
        categorySummaryTable(session).print(os);
    }
    if (!session.counters().empty()) {
        os << "\n";
        counterSummaryTable(session).print(os);
    }
    return os.str();
}

} // namespace optimus
