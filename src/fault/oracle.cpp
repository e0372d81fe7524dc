#include "fault/oracle.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/registry.hpp"

namespace rmcc::fault
{

namespace
{

/** SplitMix64 finalizer: the plaintext-truth mixing function. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
rotl64(std::uint64_t x, unsigned r)
{
    return (x << r) | (x >> (64u - r));
}

/** XOR mask covering [bit, bit+len) clipped to `width` low bits. */
std::uint64_t
bitMask(unsigned bit, unsigned len, unsigned width)
{
    std::uint64_t mask = 0;
    for (unsigned i = bit; i < bit + len && i < width; ++i)
        mask |= 1ULL << i;
    return mask;
}

} // namespace

DetectionOracle::DetectionOracle(const OracleConfig &cfg,
                                 ctr::IntegrityTree &tree)
    : cfg_(cfg), tree_(tree), mac_(cfg.key_seed ^ 0x6d6163ULL)
{
    const crypto::Aes enc_key = crypto::Aes::fromSeed(cfg.key_seed);
    const crypto::Aes mac_key =
        crypto::Aes::fromSeed(cfg.key_seed + 0x9e3779b9ULL);
    if (cfg.split_otp)
        otp_ = std::make_unique<crypto::RmccOtpEngine>(enc_key, mac_key);
    else
        otp_ = std::make_unique<crypto::BaselineOtpEngine>(enc_key, mac_key);
    const unsigned bits = std::min(cfg.mac_bits, 56u);
    mac_compare_mask_ =
        bits >= 56 ? crypto::kMacMask : ((1ULL << bits) - 1);
}

crypto::DataBlock
DetectionOracle::plaintext(addr::BlockId blk, std::uint64_t version) const
{
    // Chained SplitMix64 stream keyed by (block, write generation): any
    // two generations of any block differ in every word w.h.p., so a
    // decrypt that reproduces the expected image proves the right
    // (address, counter, version) triple end to end.
    const std::uint64_t seed =
        mix64(mix64(blk ^ 0xb10cULL) ^ mix64(version ^ 0x5eedULL));
    crypto::DataBlock pt;
    for (unsigned w = 0; w < crypto::kWordsPerBlock; ++w)
        pt[w] = crypto::makeBlock(mix64(seed + 2 * w),
                                  mix64(seed + 2 * w + 1));
    return pt;
}

crypto::DataBlock
DetectionOracle::serializeValues(
    const std::vector<addr::CounterValue> &values)
{
    // Fold the logical counter values of a block into a 64 B image the
    // MAC engine can authenticate.  Real hardware MACs the compressed
    // physical encoding; this fold keeps the property that matters for
    // detection — any change to any value changes the image (the
    // multiply is bijective and the rotated index term separates lanes).
    std::array<std::uint64_t, 8> lanes{};
    for (std::size_t i = 0; i < values.size(); ++i)
        lanes[i % 8] ^= (values[i] ^ rotl64(i * 0x9e3779b97f4a7c15ULL, 13)) *
                        0x2545f4914f6cdd1dULL;
    crypto::DataBlock img;
    for (unsigned w = 0; w < crypto::kWordsPerBlock; ++w)
        img[w] = crypto::makeBlock(lanes[2 * w], lanes[2 * w + 1]);
    return img;
}

addr::CounterValue
DetectionOracle::parentTruth(unsigned level, addr::CounterBlockId cb) const
{
    // The counter of a level-k counter block lives at level k+1; above
    // the top in-memory level sits the on-chip root, which an attacker
    // cannot touch — a constant anchors the MAC chain there.
    if (level + 1 < tree_.levels())
        return tree_.level(level + 1).read(cb);
    return 0;
}

std::uint64_t
DetectionOracle::nodeMac(unsigned level, addr::CounterBlockId cb,
                         const std::vector<addr::CounterValue> &values,
                         addr::CounterValue parent) const
{
    const crypto::DataBlock img = serializeValues(values);
    return mac_.mac(img, otp_->macOtp(tree_.blockAddr(level, cb),
                                      parent & crypto::kCounterMask));
}

std::uint64_t
DetectionOracle::dataMac(addr::BlockId blk, const crypto::DataBlock &ct,
                         addr::CounterValue ctr) const
{
    return mac_.mac(ct, dataEngine(blk).macOtp(addr::blockBase(blk),
                                               ctr & crypto::kCounterMask));
}

const crypto::OtpEngine &
DetectionOracle::dataEngine(addr::BlockId blk) const
{
    if (cfg_.key_domain_shift == 0)
        return *otp_;
    const std::uint64_t domain = blk >> cfg_.key_domain_shift;
    auto it = domain_otp_.find(domain);
    if (it == domain_otp_.end()) {
        const crypto::DomainKeys keys =
            crypto::deriveDomainKeys(cfg_.key_seed, domain);
        std::unique_ptr<crypto::OtpEngine> eng;
        if (cfg_.split_otp)
            eng = std::make_unique<crypto::RmccOtpEngine>(keys.enc,
                                                          keys.mac);
        else
            eng = std::make_unique<crypto::BaselineOtpEngine>(keys.enc,
                                                              keys.mac);
        it = domain_otp_.emplace(domain, std::move(eng)).first;
    }
    return *it->second;
}

std::vector<addr::CounterBlockId>
DetectionOracle::pathOf(addr::BlockId blk) const
{
    std::vector<addr::CounterBlockId> path;
    path.reserve(tree_.levels());
    std::uint64_t entity = blk;
    for (unsigned k = 0; k < tree_.levels(); ++k) {
        entity /= tree_.level(k).coverage();
        path.push_back(entity);
    }
    return path;
}

bool
DetectionOracle::pinnedData(addr::BlockId blk) const
{
    if (!pending_)
        return false;
    const FaultSite s = pending_->combo.site;
    return (s == FaultSite::DataCiphertext || s == FaultSite::DataMac) &&
           pending_->unit == blk;
}

bool
DetectionOracle::pinnedNode(unsigned level, addr::CounterBlockId cb) const
{
    if (!pending_)
        return false;
    const FaultSite s = pending_->combo.site;
    if (s != FaultSite::L0Counter && s != FaultSite::TreeNode)
        return false;
    return pending_->level == level && pending_->unit == cb;
}

void
DetectionOracle::refreshData(addr::BlockId blk, bool force)
{
    const auto it = data_.find(blk);
    if (it == data_.end())
        return;
    if (!force && pinnedData(blk))
        return;
    DataEntry &e = it->second;
    const addr::CounterValue ctr =
        tree_.level(0).read(blk) & crypto::kCounterMask;
    const bool stale =
        e.cur.ctr != ctr || e.cur.version != e.truth_version;
    if (!stale && !force)
        return;
    // A genuine image change (writeback or re-encryption) retires the
    // old stored image to prev; a forced heal never does — the healed
    // cur may hold attacker garbage, not something memory ever held.
    if (stale && !force && e.cur.version != 0) {
        e.prev = e.cur;
        e.has_prev = true;
    }
    StoredData fresh;
    fresh.ctr = ctr;
    fresh.version = e.truth_version;
    const crypto::BlockCodec codec(dataEngine(blk));
    fresh.ct =
        codec.encode(plaintext(blk, e.truth_version), addr::blockBase(blk),
                     ctr);
    fresh.tag = dataMac(blk, fresh.ct, ctr);
    e.cur = fresh;
}

void
DetectionOracle::refreshNode(unsigned level, addr::CounterBlockId cb,
                             bool force)
{
    NodeEntry &e = nodes_[nodeKey(level, cb)];
    if (!force && pinnedNode(level, cb))
        return;
    std::vector<addr::CounterValue> values =
        tree_.level(level).blockValues(cb);
    const addr::CounterValue parent = parentTruth(level, cb);
    const bool stale = e.cur.values != values || e.cur.parent != parent;
    if (!stale && !force)
        return;
    if (stale && !force && !e.cur.values.empty()) {
        e.prev = e.cur;
        e.has_prev = true;
    }
    e.cur.tag = nodeMac(level, cb, values, parent);
    e.cur.values = std::move(values);
    e.cur.parent = parent;
}

void
DetectionOracle::materializePath(addr::BlockId blk)
{
    const auto path = pathOf(blk);
    for (unsigned k = 0; k < tree_.levels(); ++k)
        refreshNode(k, path[k]);
    refreshData(blk);
}

addr::CounterValue
DetectionOracle::storedL0Value(addr::BlockId blk)
{
    const addr::CounterBlockId cb = blk / tree_.level(0).coverage();
    refreshNode(0, cb);
    const NodeEntry &e = nodes_.at(nodeKey(0, cb));
    const std::uint64_t slot = blk % tree_.level(0).coverage();
    return slot < e.cur.values.size() ? e.cur.values[slot] : 0;
}

bool
DetectionOracle::hasDistinctPrevData(addr::BlockId blk) const
{
    const auto it = data_.find(blk);
    if (it == data_.end() || !it->second.has_prev)
        return false;
    const DataEntry &e = it->second;
    return e.prev.ctr != e.cur.ctr || e.prev.version != e.cur.version ||
           e.prev.ct != e.cur.ct;
}

const std::vector<addr::CounterValue> *
DetectionOracle::storedNodeValues(unsigned level,
                                  addr::CounterBlockId cb) const
{
    const auto it = nodes_.find(nodeKey(level, cb));
    return it == nodes_.end() ? nullptr : &it->second.cur.values;
}

std::optional<addr::BlockId>
DetectionOracle::coveredWrittenBlock(unsigned level,
                                     addr::CounterBlockId cb,
                                     std::uint64_t slot) const
{
    // The entity decoding slot s of node (level, cb) is cb*coverage+s: a
    // data block at level 0, a level-(level-1) counter block otherwise.
    // Walk the written list for a block whose path runs through it.
    const std::uint64_t entity = cb * tree_.level(level).coverage() + slot;
    for (const addr::BlockId blk : write_order_) {
        std::uint64_t e = blk;
        for (unsigned k = 0; k < level; ++k)
            e /= tree_.level(k).coverage();
        if (e == entity)
            return blk;
    }
    return std::nullopt;
}

bool
DetectionOracle::hasDistinctPrevNode(unsigned level,
                                     addr::CounterBlockId cb) const
{
    const auto it = nodes_.find(nodeKey(level, cb));
    if (it == nodes_.end() || !it->second.has_prev)
        return false;
    const NodeEntry &e = it->second;
    return e.prev.values != e.cur.values || e.prev.parent != e.cur.parent;
}

void
DetectionOracle::onDataWrite(addr::BlockId blk)
{
    DataEntry &e = data_[blk];
    if (e.truth_version == 0)
        write_order_.push_back(blk);
    ++e.truth_version;
    refreshData(blk);
}

void
DetectionOracle::onDataRead(addr::BlockId blk, bool memo_hit)
{
    if (data_.find(blk) == data_.end())
        return; // never written: nothing stored to verify
    ++stats_.reads_verified;
    const Verdict v = verifyRead(blk, memo_hit);
    if (v.pass && v.correct)
        return;
    // A failure is expected only while an armed fault sits on this
    // read's path; anything else is an oracle/model inconsistency.
    const addr::CounterValue l0 = storedL0Value(blk);
    if (!pendingOnPath(blk, memo_hit, l0))
        ++stats_.unexpected_failures;
}

bool
DetectionOracle::pendingOnPath(addr::BlockId blk, bool memo_hit,
                               addr::CounterValue l0_value) const
{
    if (memo_fault_ && memo_hit && l0_value == memo_fault_->first)
        return true;
    if (!pending_)
        return false;
    switch (pending_->combo.site) {
    case FaultSite::DataCiphertext:
    case FaultSite::DataMac:
        return pending_->unit == blk;
    case FaultSite::L0Counter:
    case FaultSite::TreeNode: {
        const auto path = pathOf(blk);
        return pending_->level < path.size() &&
               path[pending_->level] == pending_->unit;
    }
    case FaultSite::MemoEntry:
        return false; // handled by the memo_fault_ check above
    }
    return false;
}

Verdict
DetectionOracle::verifyRead(addr::BlockId blk, bool memo_hit)
{
    Verdict v;
    const auto dit = data_.find(blk);
    if (dit == data_.end())
        return v; // vacuously fine: nothing was ever stored
    const auto path = pathOf(blk);
    const unsigned levels = tree_.levels();
    for (unsigned k = 0; k < levels; ++k)
        refreshNode(k, path[k]);
    refreshData(blk);

    // MAC chain, trust anchor downward: every node's tag is recomputed
    // over its *stored* values under the value its *stored* parent holds
    // (the on-chip root above the top level is incorruptible truth).  A
    // rollback or replay at level k either fails its own tag check or
    // surfaces one level down, where the child's tag no longer matches
    // under the perturbed parent value.
    for (int k = static_cast<int>(levels) - 1; k >= 0; --k) {
        const auto ku = static_cast<unsigned>(k);
        addr::CounterValue parent_used;
        if (ku + 1 < levels) {
            const NodeEntry &pn = nodes_.at(nodeKey(ku + 1, path[ku + 1]));
            const std::uint64_t slot =
                path[ku] % tree_.level(ku + 1).coverage();
            parent_used =
                slot < pn.cur.values.size() ? pn.cur.values[slot] : 0;
        } else {
            parent_used = parentTruth(ku, path[ku]);
        }
        const NodeEntry &n = nodes_.at(nodeKey(ku, path[ku]));
        if (macDiffers(nodeMac(ku, path[ku], n.cur.values, parent_used),
                       n.cur.tag)) {
            v.pass = false;
            v.correct = false;
            v.fail_level = k;
            return v;
        }
    }

    // Counter the controller would use for the data block: the stored L0
    // value, or the (possibly corrupted) memoized value when the read
    // hits the memo table on it.
    const NodeEntry &n0 = nodes_.at(nodeKey(0, path[0]));
    const std::uint64_t slot0 = blk % tree_.level(0).coverage();
    addr::CounterValue ctr_used =
        slot0 < n0.cur.values.size() ? n0.cur.values[slot0] : 0;
    if (memo_fault_ && memo_hit && ctr_used == memo_fault_->first)
        ctr_used = memo_fault_->second;

    const DataEntry &de = dit->second;
    if (macDiffers(dataMac(blk, de.cur.ct, ctr_used), de.cur.tag)) {
        v.pass = false;
        v.correct = false;
        v.fail_level = -1;
        return v;
    }
    const crypto::BlockCodec codec(dataEngine(blk));
    const crypto::DataBlock pt =
        codec.encode(de.cur.ct, addr::blockBase(blk),
                     ctr_used & crypto::kCounterMask);
    v.correct = pt == plaintext(blk, de.truth_version);
    return v;
}

bool
DetectionOracle::flipCiphertext(addr::BlockId blk, unsigned bit,
                                unsigned len)
{
    if (data_.find(blk) == data_.end())
        return false;
    refreshData(blk);
    DataEntry &e = data_.at(blk);
    bool flipped = false;
    for (unsigned i = bit; i < bit + len && i < 512; ++i) {
        const unsigned byte = i >> 3;
        e.cur.ct[byte >> 4][byte & 15] ^=
            static_cast<std::uint8_t>(1u << (i & 7));
        flipped = true;
    }
    return flipped;
}

bool
DetectionOracle::flipMac(addr::BlockId blk, unsigned bit, unsigned len)
{
    if (data_.find(blk) == data_.end())
        return false;
    refreshData(blk);
    const std::uint64_t mask = bitMask(bit, len, 56);
    if (mask == 0)
        return false;
    data_.at(blk).cur.tag ^= mask;
    return true;
}

bool
DetectionOracle::flipNodeValue(unsigned level, addr::CounterBlockId cb,
                               unsigned entry, unsigned bit, unsigned len)
{
    refreshNode(level, cb);
    NodeEntry &e = nodes_.at(nodeKey(level, cb));
    if (entry >= e.cur.values.size())
        return false;
    const std::uint64_t mask = bitMask(bit, len, 56);
    if (mask == 0)
        return false;
    e.cur.values[entry] ^= mask;
    return true;
}

bool
DetectionOracle::rollbackNodeValue(unsigned level, addr::CounterBlockId cb,
                                   unsigned entry, std::uint64_t delta)
{
    refreshNode(level, cb);
    NodeEntry &e = nodes_.at(nodeKey(level, cb));
    if (entry >= e.cur.values.size() || delta == 0)
        return false;
    const addr::CounterValue v = e.cur.values[entry];
    if (v == 0)
        return false;
    e.cur.values[entry] = v - std::min<std::uint64_t>(delta, v);
    return true;
}

bool
DetectionOracle::replayData(addr::BlockId blk)
{
    refreshData(blk);
    if (!hasDistinctPrevData(blk))
        return false;
    DataEntry &e = data_.at(blk);
    e.cur = e.prev;
    return true;
}

bool
DetectionOracle::replayNode(unsigned level, addr::CounterBlockId cb)
{
    refreshNode(level, cb);
    if (!hasDistinctPrevNode(level, cb))
        return false;
    NodeEntry &e = nodes_.at(nodeKey(level, cb));
    e.cur = e.prev;
    return true;
}

bool
DetectionOracle::corruptMemoValue(addr::CounterValue orig,
                                  addr::CounterValue perturbed)
{
    if (perturbed == orig)
        return false;
    memo_fault_ = std::make_pair(orig, perturbed);
    return true;
}

void
DetectionOracle::armFault(const FaultRecord &rec)
{
    pending_ = rec;
    first_check_.reset();
    pending_transient_ = false;
}

void
DetectionOracle::recordImmediate(FaultRecord rec)
{
    stats_.add(rec);
    records_.push_back(std::move(rec));
}

FaultOutcome
DetectionOracle::classifyPending(bool memo_hit)
{
    const Verdict v = verifyRead(pending_->readback_block, memo_hit);
    FaultOutcome out;
    if (!v.pass)
        out = FaultOutcome::Detected;
    else
        out = v.correct ? FaultOutcome::Masked : FaultOutcome::Silent;
    finalizePending(out, v);
    return out;
}

mc::McReadCheck
DetectionOracle::checkRead(addr::BlockId blk, bool memo_hit)
{
    const Verdict v = verifyRead(blk, memo_hit);
    if ((pending_ || memo_fault_) && !first_check_)
        first_check_ = v;
    mc::McReadCheck chk;
    chk.pass = v.pass;
    chk.fail_level = v.fail_level;
    return chk;
}

bool
DetectionOracle::onRefetch(addr::BlockId)
{
    if (!pending_transient_)
        return false;
    // Transient faults live in the transfer, not the stored cells: the
    // re-fetch reads the intact stored unit, so heal the perturbed image.
    // The record stays armed — classification uses the latched verdict.
    healPendingUnit();
    pending_transient_ = false;
    return true;
}

void
DetectionOracle::reconstructCounterPath(addr::BlockId blk)
{
    const auto path = pathOf(blk);
    for (unsigned k = 0; k < tree_.levels(); ++k)
        refreshNode(k, path[k], /*force=*/true);
}

void
DetectionOracle::healPendingUnit()
{
    if (pending_) {
        switch (pending_->combo.site) {
        case FaultSite::DataCiphertext:
        case FaultSite::DataMac:
            refreshData(pending_->unit, /*force=*/true);
            break;
        case FaultSite::L0Counter:
            refreshNode(0, pending_->unit, /*force=*/true);
            break;
        case FaultSite::TreeNode:
            refreshNode(pending_->level, pending_->unit, /*force=*/true);
            break;
        case FaultSite::MemoEntry:
            break;
        }
    }
    memo_fault_.reset();
}

FaultOutcome
DetectionOracle::classifyPendingFromCheck()
{
    const Verdict v =
        first_check_ ? *first_check_
                     : verifyRead(pending_->readback_block, false);
    FaultOutcome out;
    if (!v.pass)
        out = FaultOutcome::Detected;
    else
        out = v.correct ? FaultOutcome::Masked : FaultOutcome::Silent;
    finalizePending(out, v);
    return out;
}

void
DetectionOracle::finalizePending(FaultOutcome outcome, const Verdict &v)
{
    FaultRecord rec = *pending_;
    pending_.reset(); // un-pin so the heal below can refresh
    rec.outcome = outcome;
    if (outcome == FaultOutcome::Detected)
        rec.note = v.fail_level < 0
                       ? "data MAC mismatch"
                       : "node MAC mismatch at level " +
                             std::to_string(v.fail_level);
    else if (outcome == FaultOutcome::Silent)
        rec.note = "all checks passed, wrong plaintext delivered";

    switch (rec.combo.site) {
    case FaultSite::DataCiphertext:
    case FaultSite::DataMac:
        refreshData(rec.unit, /*force=*/true);
        break;
    case FaultSite::L0Counter:
        refreshNode(0, rec.unit, /*force=*/true);
        break;
    case FaultSite::TreeNode:
        refreshNode(rec.level, rec.unit, /*force=*/true);
        break;
    case FaultSite::MemoEntry:
        break;
    }
    memo_fault_.reset();
    first_check_.reset();
    pending_transient_ = false;
    if (outcome == FaultOutcome::Detected)
        obs::instantGlobal(obs::InstantKind::FaultDetected,
                           siteName(rec.combo.site));
    stats_.add(rec);
    records_.push_back(std::move(rec));
}

} // namespace rmcc::fault
