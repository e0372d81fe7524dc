#include "core/update_policy.hpp"

namespace rmcc::core
{

UpdatePolicy::UpdatePolicy(MemoTable &table, TrafficBudget &budget,
                           bool enabled, bool allow_far_relevel)
    : table_(table), budget_(budget), enabled_(enabled),
      allow_far_relevel_(allow_far_relevel)
{
}

std::optional<addr::CounterValue>
UpdatePolicy::memoTarget(const ctr::CounterScheme &scheme,
                         std::uint64_t idx) const
{
    const addr::CounterValue cur = scheme.read(idx);
    auto target = table_.nearestAbove(cur);
    if (!target)
        return std::nullopt;
    if (!scheme.encodable(idx, *target)) {
        // The jump rebases the whole block to at least blockMax; aim the
        // relevel at a memoized value above that so the shared new value
        // is itself memoized ("relevels ... to the nearest higher counter
        // value in the table", Sec IV-C2).
        const addr::CounterValue bmax = scheme.blockMax(idx);
        if (const auto above = table_.nearestAbove(bmax))
            target = above;
    }
    return target;
}

UpdateOutcome
UpdatePolicy::onWrite(ctr::CounterScheme &scheme, std::uint64_t idx)
{
    const addr::CounterValue cur = scheme.read(idx);
    const addr::CounterValue baseline = cur + 1;

    auto finish = [&](ctr::WriteResult r, bool memo,
                      std::uint64_t overhead) {
        UpdateOutcome out;
        out.value = r.new_value;
        out.used_memo_target = memo;
        out.overflow = r.overflow;
        out.reencrypt_blocks = r.reencrypt_blocks;
        out.overhead_accesses = overhead;
        return out;
    };

    if (!enabled_)
        return finish(scheme.write(idx, baseline), false, 0);

    const auto target = table_.nearestAbove(cur);
    if (!target || *target == baseline) {
        // No memoized value above, or the baseline increment already
        // lands on the next memoized value (the common case for groups
        // of consecutive values, Sec IV-C2).
        const bool memo = target.has_value();
        return finish(scheme.write(idx, baseline), memo, 0);
    }

    if (scheme.cheaplyEncodable(idx, *target)) {
        // Free jump: the target sits in the block's dense encoding range.
        return finish(scheme.write(idx, *target), true, 0);
    }

    // Far jump: instead of stranding one counter beyond the dense range
    // (which burns exception capacity and pushes later baseline writes
    // into overflow), relevel the whole block onto the memoized ladder.
    // The full re-encryption of every covered entity is charged to the
    // budget; when the baseline write was itself about to overflow, the
    // relevel costs nothing extra (the re-encryption was coming anyway),
    // per Sec IV-C2.
    const auto relevel_target =
        allow_far_relevel_ ? table_.nearestAbove(scheme.blockMax(idx))
                           : std::nullopt;
    if (relevel_target) {
        const bool baseline_overflows = !scheme.encodable(idx, baseline);
        const std::uint64_t cost = 2ULL * scheme.coverage();
        if (baseline_overflows || budget_.trySpend(cost)) {
            const ctr::WriteResult r =
                scheme.relevelBlock(idx, *relevel_target);
            UpdateOutcome out =
                finish(r, true, baseline_overflows ? 0 : cost);
            out.overflow = baseline_overflows;
            return out;
        }
    }

    // Budget dry (or nothing to relevel to): baseline update, including
    // its natural overflow behaviour.
    return finish(scheme.write(idx, baseline), false, 0);
}

std::optional<UpdateOutcome>
UpdatePolicy::onReadMiss(ctr::CounterScheme &scheme, std::uint64_t idx)
{
    if (!enabled_ || !allow_far_relevel_)
        return std::nullopt;
    // Relevel the whole counter block to the nearest memoized value above
    // its maximum ("relevels the counter values of an overflowing page to
    // the nearest higher counter value in the table", Sec IV-C2): one
    // budgeted relevel converges all covered counters at once and leaves
    // the block in the compact all-equal encoding, instead of
    // fragmenting it with single far-drifted minors.
    const auto target = table_.nearestAbove(scheme.blockMax(idx));
    if (!target)
        return std::nullopt;
    const std::uint64_t cost = 2ULL * scheme.coverage();
    if (!budget_.trySpend(cost))
        return std::nullopt;

    ++read_updates_;
    const ctr::WriteResult r = scheme.relevelBlock(idx, *target);
    UpdateOutcome out;
    out.value = r.new_value;
    out.used_memo_target = true;
    out.overflow = false;
    out.reencrypt_blocks = r.reencrypt_blocks;
    out.overhead_accesses = cost;
    return out;
}

} // namespace rmcc::core
