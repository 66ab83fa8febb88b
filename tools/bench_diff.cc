/**
 * @file
 * bench_diff -- compare two kagura.bench/v1 summaries.
 *
 *   bench_diff OLD.json NEW.json [--max-geomean-drop PCT]
 *
 * Prints the delta for every numeric field the two summaries share,
 * plus per-bench job_seconds deltas when both files carry the
 * optional "benches" map. A bench's job_seconds are compared only
 * when its jobs and sims counts match on both sides; a warm baseline
 * against a cold run would otherwise read as a 40x slowdown, so a
 * bench of another shape prints that shape instead. With
 * --max-geomean-drop, exits nonzero when NEW's fig13_speedup_geomean
 * regresses below OLD's by more than PCT percent (the CI regression
 * gate); without the flag the comparison is report-only and always
 * exits 0 on well-formed inputs.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "metrics/json.hh"
#include "metrics/validate.hh"

using namespace kagura;
using metrics::json::Value;

namespace
{

void
usage()
{
    std::puts(
        "bench_diff -- kagura.bench/v1 summary comparator\n"
        "\n"
        "usage:\n"
        "  bench_diff OLD.json NEW.json [--max-geomean-drop PCT]\n"
        "\n"
        "Prints per-field and per-bench deltas (NEW relative to OLD);\n"
        "a bench whose jobs/sims counts differ prints those instead.\n"
        "With --max-geomean-drop PCT, exits 1 when the fig13 speedup\n"
        "geomean drops by more than PCT percent.");
}

/** Whole-file read; false on any I/O trouble. */
bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

/**
 * Load one summary and run the kagura.bench/v1 check on it (both
 * inputs come from outside this program); fatal when malformed.
 */
Value
loadSummary(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        fatal("cannot read '%s'", path.c_str());
    Value doc;
    std::string error;
    if (!metrics::json::parse(text, doc, &error) ||
        !metrics::validateBenchSummary(doc, &error))
        fatal("%s: %s", path.c_str(), error.c_str());
    return doc;
}

/** Numeric field lookup; NaN when absent or non-numeric. */
double
numField(const Value &doc, const char *key)
{
    const Value *v = doc.find(key);
    return v && v->isNumber() ? v->number
                              : std::numeric_limits<double>::quiet_NaN();
}

/** "%g" of @p v, or "?" when it is missing (NaN). */
std::string
countText(double v)
{
    return std::isnan(v) ? "?" : detail::vformat("%g", v);
}

void
printDelta(const char *name, double before, double after)
{
    const double delta = after - before;
    if (before != 0.0)
        std::printf("  %-24s %14.6g -> %14.6g  (%+.2f%%)\n", name,
                    before, after, delta / before * 100.0);
    else
        std::printf("  %-24s %14.6g -> %14.6g\n", name, before, after);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string old_path;
    std::string new_path;
    double max_geomean_drop = -1.0; // <0 = report-only
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage();
            return 0;
        } else if (std::strcmp(arg, "--max-geomean-drop") == 0) {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", arg);
            char *end = nullptr;
            max_geomean_drop = std::strtod(argv[++i], &end);
            if (!end || *end != '\0' || max_geomean_drop < 0.0)
                fatal("--max-geomean-drop wants a non-negative "
                      "percentage, got '%s'",
                      argv[i]);
        } else if (arg[0] == '-') {
            fatal("unknown flag '%s' (see --help)", arg);
        } else if (old_path.empty()) {
            old_path = arg;
        } else if (new_path.empty()) {
            new_path = arg;
        } else {
            fatal("too many positional arguments (see --help)");
        }
    }
    if (old_path.empty() || new_path.empty())
        fatal("usage: bench_diff OLD.json NEW.json "
              "[--max-geomean-drop PCT]");

    const Value before = loadSummary(old_path);
    const Value after = loadSummary(new_path);

    const Value *old_pr = before.find("pr");
    const Value *new_pr = after.find("pr");
    std::printf("bench_diff: %s (%s) -> %s (%s)\n", old_path.c_str(),
                old_pr && old_pr->isString() ? old_pr->str.c_str()
                                             : "?",
                new_path.c_str(),
                new_pr && new_pr->isString() ? new_pr->str.c_str()
                                             : "?");

    // Every numeric field OLD carries that NEW also has, in OLD's
    // order, so summaries from older schema revisions still diff.
    for (const auto &[key, value] : before.object) {
        if (!value.isNumber())
            continue;
        const double newer = numField(after, key.c_str());
        if (std::isnan(newer))
            continue;
        printDelta(key.c_str(), value.number, newer);
    }

    // Per-bench wall-time deltas when both sides have the breakdown.
    const Value *old_benches = before.find("benches");
    const Value *new_benches = after.find("benches");
    if (old_benches && old_benches->isObject() && new_benches &&
        new_benches->isObject() && !old_benches->object.empty()) {
        std::printf("per-bench job seconds:\n");
        for (const auto &[bench, detail] : old_benches->object) {
            const double before_s = numField(detail, "job_seconds");
            const Value *other = new_benches->find(bench);
            if (!other || std::isnan(before_s))
                continue;
            const double after_s = numField(*other, "job_seconds");
            if (std::isnan(after_s))
                continue;
            const double jobs[2] = {numField(detail, "jobs"),
                                    numField(*other, "jobs")};
            const double sims[2] = {numField(detail, "sims"),
                                    numField(*other, "sims")};
            // NaN != NaN: a missing count is a shape mismatch too.
            if (jobs[0] == jobs[1] && sims[0] == sims[1])
                printDelta(bench.c_str(), before_s, after_s);
            else
                std::printf("  %-24s shape differs: jobs %s -> %s, "
                            "sims %s -> %s\n",
                            bench.c_str(), countText(jobs[0]).c_str(),
                            countText(jobs[1]).c_str(),
                            countText(sims[0]).c_str(),
                            countText(sims[1]).c_str());
        }
        for (const auto &[bench, detail] : new_benches->object) {
            (void)detail;
            if (!old_benches->find(bench))
                std::printf("  %-24s (new bench, no baseline)\n",
                            bench.c_str());
        }
    }

    // The regression gate: fig13 ACC+Kagura speedup geomean.
    const double old_geo = numField(before, "fig13_speedup_geomean");
    const double new_geo = numField(after, "fig13_speedup_geomean");
    if (max_geomean_drop < 0.0)
        return 0;
    if (std::isnan(old_geo)) {
        std::printf("fig13 geomean gate: no baseline value; skipping\n");
        return 0;
    }
    if (std::isnan(new_geo)) {
        std::fprintf(stderr,
                     "bench_diff: FAIL: %s has no "
                     "fig13_speedup_geomean to gate on\n",
                     new_path.c_str());
        return 1;
    }
    const double drop_pct = (1.0 - new_geo / old_geo) * 100.0;
    if (drop_pct > max_geomean_drop) {
        std::fprintf(stderr,
                     "bench_diff: FAIL: fig13 speedup geomean "
                     "regressed %.3f%% (%.6g -> %.6g), budget is "
                     "%.3f%%\n",
                     drop_pct, old_geo, new_geo, max_geomean_drop);
        return 1;
    }
    std::printf("fig13 geomean gate: ok (%.6g -> %.6g, %+.3f%% "
                "within %.3f%% budget)\n",
                old_geo, new_geo, -drop_pct, max_geomean_drop);
    return 0;
}
