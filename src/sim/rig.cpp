#include "sim/rig.hpp"

namespace rmcc::sim::detail
{

namespace
{

/** A thread's kept tree and the key it was built for. */
struct TreeSlot
{
    TreeLease::Key key;
    std::unique_ptr<ctr::IntegrityTree> tree;
};

thread_local TreeSlot t_slot;

} // namespace

TreeLease::Key
TreeLease::keyOf(const SystemConfig &cfg)
{
    return {cfg.scheme, cfg.phys_bytes / addr::kBlockSize, cfg.secure,
            cfg.seed, cfg.counter_init_mean};
}

TreeLease::TreeLease(const SystemConfig &cfg) : key_(keyOf(cfg))
{
    if (t_slot.tree && t_slot.key == key_) {
        tree_ = std::move(t_slot.tree);
        tree_->restoreInit();
        return;
    }
    t_slot.tree.reset(); // at most one kept tree per thread
    tree_ = std::make_unique<ctr::IntegrityTree>(key_.scheme,
                                                 key_.data_blocks);
    if (key_.secure) {
        util::Rng rng(key_.seed ^ 0xc0c0);
        tree_->randomInit(rng, key_.init_mean);
    }
}

TreeLease::~TreeLease()
{
    t_slot.key = key_;
    t_slot.tree = std::move(tree_);
}

} // namespace rmcc::sim::detail
