#include "mc/secure_mc.hpp"

#include <algorithm>
#include <iterator>

#include "obs/registry.hpp"
#include "util/log.hpp"

namespace rmcc::mc
{

namespace
{

/** stats() names of SecureMc's event counts, in SecureMc::Count order. */
constexpr const char *kCountNames[] = {
    "dram.data_read",
    "dram.data_write",
    "dram.ctr_read",
    "dram.ctr_write",
    "dram.ovf0",
    "dram.ovf_hi",
    "dram.total",
    "ctr.writebacks",
    "ovf.count",
    "ovf.l0",
    "ovf.hi",
    "rmcc.read_updates",
    "rmcc.memo_write_updates",
    "mc.reads",
    "mc.writes",
    "ctr.l0_miss",
    "ctr.hi_miss",
    "ctr.l0_hit",
    "memo.l0_lookups_on_miss",
    "memo.l0_hit_on_miss",
    "memo.l0_group_hit_on_miss",
    "memo.l0_recent_hit_on_miss",
    "memo.l0_hit_all",
    "memo.l0_lookups_all",
    "memo.accelerated_misses",
};

/**
 * The counter cache's tag window: the tree's counter region, in which
 * MemoryLayout places every level contiguously, in ascending order, from
 * level 0's base to the end of the address space.
 */
cache::TagWindow
counterRegion(const ctr::IntegrityTree &tree)
{
    const addr::Addr base = tree.blockAddr(0, 0);
    return {base >> addr::kBlockShift,
            (tree.layout().totalBytes() - base) >> addr::kBlockShift};
}

} // namespace

SecureMc::SecureMc(const McConfig &cfg, ctr::IntegrityTree &tree,
                   core::RmccEngine &engine, dram::Ddr4 &dram)
    : cfg_(cfg), tree_(tree), engine_(engine), dram_(dram),
      ctr_cache_("counter-cache", cfg.counter_cache_bytes,
                 cfg.counter_cache_assoc, addr::kBlockSize,
                 cache::ReplPolicy::LRU, counterRegion(tree)),
      ovf_(dram), recovery_(cfg.recovery)
{
    const unsigned levels = tree_.levels();
    if (levels > kMaxLevels)
        util::fatal("SecureMc: integrity tree has %u levels, max %u",
                    levels, kMaxLevels);
    for (unsigned k = 0; k < levels; ++k) {
        meta_[k].base = tree_.blockAddr(k, 0);
        meta_[k].end =
            meta_[k].base + tree_.blocksAt(k) * addr::kBlockSize;
        meta_[k].coverage = tree_.level(k).coverage();
        meta_[k].decode_ns = tree_.level(k).decodeLatencyNs();
        meta_[k].storage = tree_.level(k).entityStorage();
    }
}

util::StatSet
SecureMc::stats() const
{
    static_assert(std::size(kCountNames) == kCounts);
    util::StatSet s;
    for (unsigned c = 0; c < kCounts; ++c)
        if (counts_[c] != 0)
            s.put(kCountNames[c], static_cast<double>(counts_[c]));
    // Every read adds its service time, 0 included.
    if (counts_[kMcReads] != 0)
        s.put("lat.read_sum_ns", read_sum_ns_);
    return s;
}

void
SecureMc::prefetchRead(addr::Addr paddr) const
{
    if (!cfg_.secure)
        return;
    // The read walk's first touches: the L0 (and, on an L0 miss, L1)
    // counter entry for this block and the counter-cache sets holding
    // their blocks.  Counter stores span tens of megabytes, so these
    // loads are the replay loop's dominant memory stalls; issuing them a
    // record early hides most of that latency.
    const addr::BlockId blk = addr::blockOf(paddr);
    const std::uint64_t cb0 = blk / meta_[0].coverage;
    meta_[0].storage.prefetch(blk);
    ctr_cache_.prefetchSet(meta_[0].base + (cb0 << addr::kBlockShift));
    if (tree_.levels() > 1) {
        const std::uint64_t cb1 = cb0 / meta_[1].coverage;
        meta_[1].storage.prefetch(cb0);
        ctr_cache_.prefetchSet(meta_[1].base + (cb1 << addr::kBlockShift));
    }
}

double
SecureMc::chargeDram(addr::Addr a, bool is_write, double now_ns,
                     Count category)
{
    ++counts_[category];
    ++counts_[kDramTotal];
    engine_.onDramAccess();
    const double done = dram_.access(a, is_write, now_ns).done_ns;
    if (obs_)
        obs_->recordLatency(obs::LatencyHist::Dram, done - now_ns);
    return done;
}

std::pair<double, bool>
SecureMc::touchCounterBlock(unsigned level, addr::CounterBlockId cb,
                            bool dirty, double now_ns)
{
    const addr::Addr a =
        meta_[level].base + (cb << addr::kBlockShift);
    const double decode = meta_[level].decode_ns;
    // One set scan: a miss allocates the line at once, and the victim is
    // written back after the fetch is charged.
    const cache::AccessResult acc = ctr_cache_.access(a, dirty);
    if (acc.hit)
        return {now_ns + cfg_.lat.ctr_cache_ns + decode, false};
    const double done = chargeDram(a, false, now_ns, kDramCtrRead);
    if (acc.writeback) {
        // Dirty victim: identify its level and block id from the address.
        for (unsigned l = 0; l < tree_.levels(); ++l) {
            if (acc.victim_addr >= meta_[l].base &&
                acc.victim_addr < meta_[l].end) {
                counterWriteback(
                    l,
                    (acc.victim_addr - meta_[l].base) >> addr::kBlockShift,
                    now_ns);
                break;
            }
        }
    }
    return {done + decode, true};
}

void
SecureMc::counterWriteback(unsigned level, addr::CounterBlockId cb,
                           double now_ns)
{
    // Writing a counter block back to memory bumps its own counter, which
    // lives one level up (the on-chip root needs no update traffic).
    if (level + 1 < tree_.levels()) {
        const core::UpdateOutcome out =
            engine_.onWriteCounter(level + 1, cb);
        if (out.reencrypt_blocks > 0) {
            const std::uint64_t first =
                (cb / meta_[level + 1].coverage) *
                meta_[level + 1].coverage;
            chargeOverflow(level + 1, first, out.reencrypt_blocks, now_ns);
        }
        // The parent counter block must be present and dirty.
        const addr::CounterBlockId parent =
            cb / meta_[level + 1].coverage;
        touchCounterBlock(level + 1, parent, true, now_ns);
    }
    chargeDram(meta_[level].base + (cb << addr::kBlockShift), true, now_ns,
               kDramCtrWrite);
    ++counts_[kCtrWritebacks];
}

double
SecureMc::chargeOverflow(unsigned level, std::uint64_t first_entity,
                         std::uint64_t blocks, double now_ns)
{
    // Covered entities of a level-k overflow are data blocks (k = 0) or
    // level k-1 counter blocks (k >= 1); each is read and rewritten.
    const addr::Addr base =
        level == 0
            ? first_entity * addr::kBlockSize
            : meta_[level - 1].base + (first_entity << addr::kBlockShift);
    const OverflowIssue issue = ovf_.schedule(base, blocks, now_ns);
    counts_[level == 0 ? kDramOvf0 : kDramOvfHi] += issue.accesses;
    counts_[kDramTotal] += issue.accesses;
    for (std::uint64_t i = 0; i < issue.accesses; ++i)
        engine_.onDramAccess();
    ++counts_[kOvfCount];
    ++counts_[level == 0 ? kOvfL0 : kOvfHi];
    if (obs_)
        obs_->instant(level == 0 ? obs::InstantKind::CounterOverflowL0
                                 : obs::InstantKind::CounterOverflowHi);
    return issue.stall_until_ns;
}

core::MemoHit
SecureMc::consultRead(unsigned level, std::uint64_t entity, double now_ns)
{
    const core::ReadConsult consult =
        engine_.onReadCounterUse(level, entity);
    if (!consult.releveled)
        return consult.hit;
    // The whole counter block was releveled: every covered entity is
    // re-encrypted under the new shared counter (read + write each),
    // drained through the overflow engine like any block re-encryption.
    ++counts_[kRmccReadUpdates];
    if (obs_)
        obs_->instant(obs::InstantKind::Rebase);
    if (consult.reencrypt_blocks > 0) {
        const unsigned cov = meta_[level].coverage;
        const std::uint64_t first = (entity / cov) * cov;
        chargeOverflow(level, first, consult.reencrypt_blocks, now_ns);
    }
    // Its counter block is now dirty.
    touchCounterBlock(level, entity / meta_[level].coverage, true, now_ns);
    return consult.hit;
}

// rmcc-lint: hot-path
McReadResult
SecureMc::read(addr::Addr paddr, double now_ns)
{
    McReadResult res;
    ++counts_[kMcReads];

    const double data_done = chargeDram(paddr, false, now_ns, kDramDataRead);
    if (!cfg_.secure) {
        res.done_ns = data_done;
        read_sum_ns_ += res.done_ns - now_ns;
        if (obs_)
            obs_->recordLatency(obs::LatencyHist::McRead,
                                res.done_ns - now_ns);
        return res;
    }

    const addr::BlockId blk = addr::blockOf(paddr);
    const unsigned levels = tree_.levels();

    // Slide the recovery policy's storm window and degraded residency
    // (one predicted branch when RMCC_RECOVERY=off).
    if (recovery_.onSecureRead() && obs_)
        obs_->instant(obs::InstantKind::DegradedExit);
    const bool degraded = recovery_.degraded();
    res.recovery.degraded = degraded;

    // Walk up the tree until the counter cache hits (or the root).
    // entity[k] is the thing whose counter level k stores; block_id[k] is
    // the counter block at level k that holds it.  Fixed-size stack
    // scratch: this path runs per LLC miss and must not allocate.
    std::uint64_t entity[kMaxLevels + 1];
    addr::CounterBlockId block_id[kMaxLevels];
    // known[k] = when the level-k counter value is known: set below for
    // every walked level, and for the on-chip root at known[levels].
    double known[kMaxLevels + 1];
    known[levels] = now_ns;
    entity[0] = blk;
    unsigned hit_level = levels; // levels = walked to the on-chip root
    for (unsigned k = 0; k < levels; ++k) {
        block_id[k] = entity[k] / meta_[k].coverage;
        entity[k + 1] = block_id[k];
        const auto [t, missed] =
            touchCounterBlock(k, block_id[k], false, now_ns);
        known[k] = t;
        if (!missed) {
            hit_level = k;
            break;
        }
        ++counts_[k == 0 ? kCtrL0Miss : kCtrHiMiss];
    }
    res.counter_miss = hit_level != 0;
    if (!res.counter_miss)
        ++counts_[kCtrL0Hit];

    // Consult RMCC for every counter value this read uses: level 0 always
    // (data OTPs), level k >= 1 only when level k-1's block was fetched
    // (its MAC needs the level-k value).  hit[k] is set for k <= walked
    // below the root; ctr_contrib and the L1 test read no other entry.
    core::MemoHit hit[kMaxLevels];
    hit[0] = consultRead(0, entity[0], now_ns);
    const unsigned walked = std::min(hit_level, levels);
    for (unsigned k = 1; k <= walked && k < levels; ++k)
        hit[k] = consultRead(k, entity[k], now_ns);

    // Degraded mode: memoization is disabled — every consult becomes a
    // miss, so reads pay full AES and a poisoned memo entry cannot serve.
    if (degraded)
        std::fill(hit, hit + levels, core::MemoHit::Miss);

    res.memo_hit = hit[0] != core::MemoHit::Miss;
    if (res.counter_miss) {
        ++counts_[kMemoLookupsOnMiss];
        if (res.memo_hit) {
            ++counts_[kMemoHitOnMiss];
            ++counts_[hit[0] == core::MemoHit::GroupHit
                          ? kMemoGroupHitOnMiss
                          : kMemoRecentHitOnMiss];
        }
    }
    if (res.memo_hit)
        ++counts_[kMemoHitAll];
    ++counts_[kMemoLookupsAll];

    // Counter-value contribution latency at a level: memoized values need
    // only the CLMUL combine; otherwise AES runs after the value is known
    // (plus the combine under RMCC's split OTP).  Without RMCC every
    // level pays plain AES, and no level is memoized.
    const unsigned memo_levels = engine_.enabled() ? engine_.memoLevels() : 0;
    const double miss_contrib = engine_.enabled()
                                    ? cfg_.lat.aes_ns + cfg_.lat.clmul_ns
                                    : cfg_.lat.aes_ns;
    auto ctr_contrib = [&](unsigned k) {
        return k < memo_levels && hit[k] != core::MemoHit::Miss
                   ? cfg_.lat.clmul_ns
                   : miss_contrib;
    };

    // Verification chain from the trust point down to level 0.
    // verified[k] = when the level-k block fetched from memory is trusted.
    // The trust point is the cached block (pre-verified) or the on-chip
    // root; no entry above it is read.
    double verified[kMaxLevels + 1];
    verified[hit_level] = known[hit_level];
    for (int k = static_cast<int>(std::min(hit_level, levels)) - 1; k >= 0;
         --k) {
        const auto ku = static_cast<unsigned>(k);
        // MAC of the fetched level-k block uses the level-(k+1) value.
        // The address-only AES overlaps the fetch; the value contribution
        // starts when the value is known and the source block trusted.
        const double otp_ready =
            std::max(known[ku + 1], verified[ku + 1]) + ctr_contrib(ku + 1);
        verified[ku] = std::max(known[ku], otp_ready) + cfg_.lat.mac_dot_ns;
    }

    // Data decryption and verification.
    const double otp0 =
        std::max(known[0] + ctr_contrib(0), now_ns + cfg_.lat.aes_ns);
    const double trusted0 =
        hit_level == 0 ? known[0] : verified[0];
    const double decrypted =
        std::max(data_done, otp0) + cfg_.lat.otp_xor_ns;
    // Degraded mode pays one extra MAC combine: the full-verify rule
    // re-checks the whole chain instead of trusting memo shortcuts.
    const double data_verified =
        std::max({data_done, otp0, trusted0}) + cfg_.lat.mac_dot_ns +
        (degraded ? cfg_.lat.mac_dot_ns : 0.0);
    res.done_ns = std::max(decrypted, data_verified);

    // Headline stat (Sec VI): a counter miss counts as accelerated when
    // the L0 value is memoized and the L1 value is either cached or
    // memoized.
    if (res.counter_miss && res.memo_hit) {
        const bool l1_fast =
            hit_level == 1 ||
            (levels > 1 && hit[1] != core::MemoHit::Miss);
        res.accelerated = l1_fast || hit_level >= levels;
        if (res.accelerated)
            ++counts_[kMemoAcceleratedMisses];
    }

    // Self-healing check runs before latency accounting so a recovered
    // read carries its true (longer) service time.
    if (observer_ && recovery_.active()) {
        const McReadCheck chk = observer_->checkRead(blk, res.memo_hit);
        if (!chk.pass)
            recoverRead(blk, paddr, chk, res);
    }

    read_sum_ns_ += res.done_ns - now_ns;
    if (obs_) {
        obs_->recordLatency(obs::LatencyHist::McRead, res.done_ns - now_ns);
        obs_->recordLatency(obs::LatencyHist::MacVerify,
                            data_verified - now_ns);
    }
    if (observer_)
        observer_->onDataRead(blk, res.memo_hit);
    return res;
}

void
SecureMc::recoverRead(addr::BlockId blk, addr::Addr paddr,
                      const McReadCheck &first, McReadResult &res)
{
    RecoveryStats &rs = recovery_.stats();
    res.recovery.detected = true;
    if (recovery_.onDetection() && obs_)
        obs_->instant(obs::InstantKind::DegradedEnter);

    const RecoveryConfig &rc = recovery_.config();
    const double t_detect = res.done_ns;
    double t = res.done_ns;
    bool healthy = false;

    // Stage 1: bounded re-fetch with exponential backoff.  Heals
    // transient transfer faults — the stored cells are intact, so a
    // fresh fetch + re-derive + re-verify comes back clean.
    double backoff = rc.refetch_backoff_ns;
    for (unsigned a = 0; a < rc.max_refetch && !healthy; ++a) {
        ++rs.refetch_attempts;
        ++res.recovery.refetches;
        t += backoff;
        backoff *= 2.0;
        t = chargeDram(paddr, false, t, kDramDataRead);
        t += cfg_.lat.aes_ns + cfg_.lat.mac_dot_ns;
        observer_->onRefetch(blk);
        healthy = observer_->checkRead(blk, res.memo_hit).pass;
        if (healthy)
            ++rs.recovered_refetch;
    }

    // Stage 2: counter reconstruction.  A corrupted counter or tree node
    // has a redundant authenticated source — the integrity tree walked
    // from the on-chip root — so rebuild every counter block on the path
    // (fetch + MAC per level, written back dirty).
    if (!healthy && recovery_.full() && first.fail_level >= 0) {
        const unsigned levels = tree_.levels();
        std::uint64_t entity = blk;
        for (unsigned k = 0; k < levels; ++k) {
            const addr::CounterBlockId cb = entity / meta_[k].coverage;
            // Only the corrupted level's block is rewritten (dirty); the
            // rest of the path is fetched and verified in place.
            const bool dirty = static_cast<int>(k) == first.fail_level;
            t = std::max(t, touchCounterBlock(k, cb, dirty, t).first) +
                cfg_.lat.mac_dot_ns;
            entity = cb;
        }
        observer_->reconstructCounterPath(blk);
        res.recovery.reconstructed = true;
        healthy = observer_->checkRead(blk, res.memo_hit).pass;
        if (healthy)
            ++rs.recovered_reconstruct;
    }

    // Stage 3: memo quarantine.  A poisoned memoized pad must never
    // serve another read: evict it (the engine re-arms the monitor from
    // the post-quarantine table — the security-register rollback rule)
    // and retry with an honestly recomputed OTP.
    if (!healthy && recovery_.full() && res.memo_hit) {
        const addr::CounterValue v = tree_.level(0).read(blk);
        if (engine_.quarantineMemoValue(0, v)) {
            ++rs.values_quarantined;
            res.recovery.quarantined = true;
            if (obs_)
                obs_->instant(obs::InstantKind::MemoQuarantine);
        }
        res.memo_hit = false;
        res.accelerated = false;
        t += cfg_.lat.aes_ns; // the pad is recomputed from scratch
        healthy = observer_->checkRead(blk, res.memo_hit).pass;
        if (healthy)
            ++rs.recovered_quarantine;
    }

    if (healthy) {
        res.recovery.recovered = true;
        if (obs_)
            obs_->instant(obs::InstantKind::FaultRecovered);
    } else {
        // Data ciphertext/MAC corruption that survives re-fetch has no
        // redundant copy to rebuild from: refuse the read.  The caller
        // must treat the data as never served.
        ++rs.unrecoverable;
        res.recovery.unrecoverable = true;
    }
    res.done_ns = t;
    if (obs_)
        obs_->recordLatency(obs::LatencyHist::Recovery, t - t_detect);
}

double
SecureMc::write(addr::Addr paddr, double now_ns)
{
    ++counts_[kMcWrites];
    if (!cfg_.secure) {
        chargeDram(paddr, true, now_ns, kDramDataWrite);
        return now_ns;
    }

    const addr::BlockId blk = addr::blockOf(paddr);
    const core::UpdateOutcome out = engine_.onWriteCounter(0, blk);
    if (out.used_memo_target)
        ++counts_[kRmccMemoWriteUpdates];
    double stall = now_ns;
    if (out.reencrypt_blocks > 0) {
        const unsigned cov = meta_[0].coverage;
        const std::uint64_t first = (blk / cov) * cov;
        stall = std::max(
            stall, chargeOverflow(0, first, out.reencrypt_blocks, now_ns));
    }

    // The L0 counter block is read-modified: it must be resident and
    // becomes dirty.
    touchCounterBlock(0, blk / meta_[0].coverage, true, now_ns);

    // Encrypt + write the data (posted; OTP generation is off the
    // critical path because the counter is already in the MC).
    chargeDram(paddr, true, now_ns, kDramDataWrite);
    if (observer_)
        observer_->onDataWrite(blk);
    return stall;
}

} // namespace rmcc::mc
