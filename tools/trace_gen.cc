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
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
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

    const auto intervals =
        static_cast<std::uint64_t>(std::strtoull(argv[2], nullptr, 0));
    const std::uint64_t seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 0) : 0x6b616775;

    auto trace = makeTrace(*kind, intervals, seed);
    for (std::uint64_t i = 0; i < trace->length(); ++i)
        std::printf("%.9e\n", trace->power(i));
    return 0;
}
