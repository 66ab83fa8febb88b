/**
 * @file
 * trace_gen -- export a synthetic ambient power trace in the text
 * format the paper describes (one average-watt value per 10 us
 * interval, one per line). The output can be fed back to the
 * simulator through loadTraceFile(), or inspected/plotted externally.
 *
 * Usage: trace_gen KIND INTERVALS [SEED] > trace.txt
 *        (KIND: a TraceKind name, case-insensitive, e.g. rfhome)
 */

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "common/spelling.hh"
#include "energy/power_trace.hh"

using namespace kagura;

int
main(int argc, char **argv)
{
    if (argc < 3 || std::strcmp(argv[1], "--help") == 0) {
        std::fprintf(stderr,
                     "usage: trace_gen KIND INTERVALS [SEED]\n"
                     "  KIND: %s (case-insensitive)\n"
                     "  one average-watt value per 10 us interval, one "
                     "per line\n",
                     enumNameList(traceKindNames, " | ").c_str());
        return argc < 3 ? 1 : 0;
    }

    const auto kind = enumFromName(traceKindNames, argv[1]);
    if (!kind)
        fatal("unknown trace kind '%s'", argv[1]);

    std::uint64_t intervals = 0;
    if (!parseIntegerLiteral(std::string_view(argv[2]), intervals))
        fatal("bad value '%s' for INTERVALS", argv[2]);
    std::uint64_t seed = 0x6b616775;
    if (argc > 3 && !parseIntegerLiteral(std::string_view(argv[3]), seed))
        fatal("bad value '%s' for SEED", argv[3]);

    auto trace = makeTrace(*kind, intervals, seed);
    for (std::uint64_t i = 0; i < trace->length(); ++i)
        std::printf("%.9e\n", trace->power(i));
    return 0;
}
