/**
 * @file
 * Plan export: step summaries, the "optimus-kernel-plan" JSON schema
 * (version 1, lossless round trip through util/json.h's
 * shortest-round-trip number dump) and an RFC-4180 CSV — the backing
 * of the `optimus_cli kernels` subcommand.
 */

#include "plan/plan.h"

#include <charconv>
#include <sstream>

#include "util/table.h"

namespace optimus {
namespace plan {

namespace {

const char *kSchemaName = "optimus-kernel-plan";
constexpr int kSchemaVersion = 1;

const char *
scopeName(GroupScope scope)
{
    return scope == GroupScope::InterNode ? "inter-node" : "intra-node";
}

/** %.17g text: exact, so the CSV parses back to the same doubles. */
std::string
csvNumber(double v)
{
    char buf[32];
    char *end = std::to_chars(buf, buf + sizeof(buf), v,
                              std::chars_format::general, 17)
                    .ptr;
    return std::string(buf, end);
}

} // namespace

std::vector<StepSummary>
summarizePlan(const EvaluatedPlan &ep)
{
    std::vector<StepSummary> out;
    out.reserve(ep.plan.steps.size());
    for (size_t i = 0; i < ep.plan.steps.size(); ++i) {
        const PlanStep &st = ep.plan.steps[i];
        const StepEval &ev = ep.evals[i];
        StepSummary r;
        r.lane = st.lane;
        r.name = st.name;
        r.category = ev.category;
        r.count = st.instances();
        r.perInstance = ev.perInstance;
        r.total = ev.total;
        switch (st.kind) {
          case StepKind::Compute:
            r.kind = "compute";
            r.flops = ev.flops;
            r.dramBytes = ev.dramBytes;
            r.overhead = ev.overhead;
            r.detail = boundLevelName(ep.dev, ev.boundLevel);
            break;
          case StepKind::Collective:
            r.kind = "collective";
            r.detail = scopeName(st.scope);
            break;
          case StepKind::Synthetic:
            r.kind = "synthetic";
            break;
        }
        out.push_back(std::move(r));
    }
    return out;
}

JsonValue
planJson(const EvaluatedPlan &ep)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::string(kSchemaName));
    doc.set("version", JsonValue::number(double(kSchemaVersion)));
    doc.set("phase", JsonValue::string(ep.plan.phase));

    JsonValue arr = JsonValue::array();
    double total_time = 0.0, total_flops = 0.0, total_bytes = 0.0;
    for (const StepSummary &r : summarizePlan(ep)) {
        JsonValue e = JsonValue::object();
        e.set("lane", JsonValue::string(r.lane));
        e.set("name", JsonValue::string(r.name));
        e.set("category", JsonValue::string(r.category));
        e.set("kind", JsonValue::string(r.kind));
        e.set("count", JsonValue::number(double(r.count)));
        e.set("per_instance_s", JsonValue::number(r.perInstance));
        e.set("total_s", JsonValue::number(r.total));
        e.set("flops", JsonValue::number(r.flops));
        e.set("dram_bytes", JsonValue::number(r.dramBytes));
        e.set("overhead_s", JsonValue::number(r.overhead));
        e.set("detail", JsonValue::string(r.detail));
        arr.push(std::move(e));
        total_time += r.total;
        total_flops += r.flops;
        total_bytes += r.dramBytes;
    }
    doc.set("steps", std::move(arr));

    JsonValue totals = JsonValue::object();
    totals.set("time", JsonValue::number(total_time));
    totals.set("flops", JsonValue::number(total_flops));
    totals.set("dram_bytes", JsonValue::number(total_bytes));
    doc.set("totals", std::move(totals));
    return doc;
}

std::string
planCsv(const EvaluatedPlan &ep)
{
    Table t({"lane", "name", "category", "kind", "count",
             "per_instance_s", "total_s", "flops", "dram_bytes",
             "overhead_s", "detail"});
    for (const StepSummary &r : summarizePlan(ep)) {
        t.beginRow()
            .cell(r.lane)
            .cell(r.name)
            .cell(r.category)
            .cell(r.kind)
            .cell(r.count)
            .cell(csvNumber(r.perInstance))
            .cell(csvNumber(r.total))
            .cell(csvNumber(r.flops))
            .cell(csvNumber(r.dramBytes))
            .cell(csvNumber(r.overhead))
            .cell(r.detail);
        t.endRow();
    }
    std::ostringstream os;
    t.printCsv(os);
    return os.str();
}

} // namespace plan
} // namespace optimus
