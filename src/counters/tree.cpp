#include "counters/tree.hpp"

#include <algorithm>

#include "counters/monolithic.hpp"
#include "counters/morphable.hpp"
#include "counters/sc64.hpp"
#include "util/log.hpp"

namespace rmcc::ctr
{

std::unique_ptr<CounterScheme>
makeScheme(SchemeKind kind, std::uint64_t n)
{
    switch (kind) {
      case SchemeKind::SgxMonolithic:
        return std::make_unique<MonolithicScheme>(n);
      case SchemeKind::SC64:
        return std::make_unique<Sc64Scheme>(n);
      case SchemeKind::Morphable:
        return std::make_unique<MorphableScheme>(n);
    }
    util::panic("unknown scheme kind");
}

std::string
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::SgxMonolithic:
        return "SGX-monolithic";
      case SchemeKind::SC64:
        return "SC-64";
      case SchemeKind::Morphable:
        return "Morphable";
    }
    return "?";
}

unsigned
schemeCoverage(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::SgxMonolithic:
        return MonolithicScheme::kCoverage;
      case SchemeKind::SC64:
        return Sc64Scheme::kCoverage;
      case SchemeKind::Morphable:
        return MorphableScheme::kCoverage;
    }
    return 0;
}

IntegrityTree::IntegrityTree(SchemeKind kind, std::uint64_t data_blocks)
    : kind_(kind),
      layout_(data_blocks * addr::kBlockSize, schemeCoverage(kind),
              schemeCoverage(kind))
{
    // Level 0 covers data blocks; each higher level covers the counter
    // blocks of the level below, until at most eight blocks remain — the
    // counters of those top blocks live in on-chip root registers (see
    // MemoryLayout).
    std::uint64_t entities = data_blocks;
    while (true) {
        schemes_.push_back(makeScheme(kind, entities));
        const std::uint64_t blocks =
            (entities + schemeCoverage(kind) - 1) / schemeCoverage(kind);
        if (blocks <= 8)
            break;
        entities = blocks;
    }
}

std::uint64_t
IntegrityTree::blocksAt(unsigned k) const
{
    const std::uint64_t entities = schemes_[k]->entities();
    const unsigned cov = schemes_[k]->coverage();
    return (entities + cov - 1) / cov;
}

void
IntegrityTree::randomInit(util::Rng &rng, addr::CounterValue mean)
{
    for (auto &s : schemes_)
        s->randomInit(rng, mean);
}

void
IntegrityTree::restoreInit()
{
    for (auto &s : schemes_)
        s->restoreInit();
}

addr::CounterValue
IntegrityTree::observedMax() const
{
    addr::CounterValue m = 0;
    for (const auto &s : schemes_)
        m = std::max(m, s->observedMax());
    return m;
}

std::uint64_t
IntegrityTree::totalOverflows() const
{
    std::uint64_t n = 0;
    for (const auto &s : schemes_)
        n += s->overflows();
    return n;
}

} // namespace rmcc::ctr
