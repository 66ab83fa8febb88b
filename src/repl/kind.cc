#include "repl/kind.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace kagura
{
namespace repl
{

const char *
replacementPolicyName(ReplKind kind)
{
    switch (kind) {
      case ReplKind::Lru:
        return "LRU";
      case ReplKind::Fifo:
        return "FIFO";
      case ReplKind::Random:
        return "random";
      case ReplKind::Camp:
        return "CAMP";
      case ReplKind::Crrip:
        return "CRRIP";
      case ReplKind::SizeOptgen:
        return "size-optgen";
      case ReplKind::Dish:
        return "dish";
    }
    panic("unknown ReplKind %d", static_cast<int>(kind));
}

namespace
{

constexpr ReplKind allKinds[] = {
    ReplKind::Lru,   ReplKind::Fifo,       ReplKind::Random,
    ReplKind::Camp,  ReplKind::Crrip,      ReplKind::SizeOptgen,
    ReplKind::Dish,
};

constexpr ReplKind onlineKinds[] = {
    ReplKind::Lru,  ReplKind::Fifo,  ReplKind::Random,
    ReplKind::Camp, ReplKind::Crrip, ReplKind::Dish,
};

} // namespace

std::optional<ReplKind>
parseReplKind(std::string_view name)
{
    for (ReplKind kind : allKinds) {
        if (iequals(name, replacementPolicyName(kind)))
            return kind;
    }
    return std::nullopt;
}

ReplKindList
allReplKinds()
{
    return {allKinds, sizeof(allKinds) / sizeof(allKinds[0])};
}

ReplKindList
onlineReplKinds()
{
    return {onlineKinds, sizeof(onlineKinds) / sizeof(onlineKinds[0])};
}

} // namespace repl
} // namespace kagura
