#include "tags/kind.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace kagura
{
namespace tags
{

const char *
tagLayoutName(TagLayoutKind kind)
{
    switch (kind) {
      case TagLayoutKind::Baseline:
        return "baseline";
      case TagLayoutKind::Superblock:
        return "superblock";
      case TagLayoutKind::Signature:
        return "signature";
    }
    panic("unknown TagLayoutKind %d", static_cast<int>(kind));
}

namespace
{

constexpr TagLayoutKind allKinds[] = {
    TagLayoutKind::Baseline,
    TagLayoutKind::Superblock,
    TagLayoutKind::Signature,
};

} // namespace

std::optional<TagLayoutKind>
parseTagLayoutKind(std::string_view name)
{
    for (TagLayoutKind kind : allKinds) {
        if (iequals(name, tagLayoutName(kind)))
            return kind;
    }
    return std::nullopt;
}

TagLayoutKindList
allTagLayoutKinds()
{
    return {allKinds, sizeof(allKinds) / sizeof(allKinds[0])};
}

} // namespace tags
} // namespace kagura
