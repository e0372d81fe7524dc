/**
 * @file
 * A trace's memo of values computed from its records.
 *
 * Some derived data depends only on a trace's records and on a small key:
 * the simulator's front-end recording (each record's TLB and L1/L2/LLC
 * outcome, sim/front_end.hpp) is a function of the trace and a handful of
 * config fields, and every cell that replays the trace under the same key
 * would otherwise recompute it.  Every TraceSource owns a TraceMemo, so
 * such values live exactly as long as their trace, with no process-wide
 * table and no key based on an address.
 *
 * Entries are type-erased and matched exactly: same key type, same value
 * type and key == key.  get() is thread-safe.  When several callers ask
 * for one cold key at once, one of them builds while the others wait for
 * its value; a build that throws (a cell cancelled by its timeout, say)
 * publishes nothing, and the next caller builds afresh.  A copy of a memo
 * starts empty: the memo caches the records, it is never state of its own.
 */
#ifndef RMCC_TRACE_TRACE_MEMO_HPP
#define RMCC_TRACE_TRACE_MEMO_HPP

#include <atomic>
#include <memory>
#include <vector>

#include "util/mutex.hpp"

namespace rmcc::trace
{

class TraceMemo
{
  public:
    TraceMemo() = default;
    TraceMemo(const TraceMemo &) {}
    TraceMemo &operator=(const TraceMemo &other)
    {
        if (this != &other)
            clear();
        return *this;
    }
    ~TraceMemo() = default;

    /**
     * The value stored under key, calling build() (which returns a
     * Value) to compute it on first use.  Key needs operator==.
     */
    template <class Value, class Key, class Build>
    std::shared_ptr<const Value> get(const Key &key, Build &&build)
    {
        using Typed = TypedSlot<Key, Value>;
        std::shared_ptr<Typed> claim;
        {
            util::MutexLock lock(mu_);
            // Wait while another caller builds this key's value.
            Typed *found = nullptr;
            published_.wait(lock, [&]() RMCC_REQUIRES(mu_) {
                found = nullptr;
                for (const std::shared_ptr<Slot> &s : slots_) {
                    auto *t = dynamic_cast<Typed *>(s.get());
                    if (t != nullptr && t->key == key)
                        found = t;
                }
                return found == nullptr || found->value != nullptr;
            });
            if (found != nullptr)
                return found->value;
            claim = std::make_shared<Typed>(key);
            slots_.push_back(claim);
            used_.store(true, std::memory_order_relaxed);
        }
        std::shared_ptr<const Value> value;
        try {
            value = std::make_shared<const Value>(build());
        } catch (...) {
            {
                util::MutexLock lock(mu_);
                std::erase_if(slots_,
                              [&claim](const std::shared_ptr<Slot> &s) {
                                  return s == claim;
                              });
            }
            published_.notify_all();
            throw;
        }
        {
            util::MutexLock lock(mu_);
            claim->value = value;
        }
        published_.notify_all();
        return value;
    }

    /** Drop every entry (cheap when the memo was never used). */
    void clear()
    {
        if (!used_.load(std::memory_order_relaxed))
            return;
        util::MutexLock lock(mu_);
        slots_.clear();
        used_.store(false, std::memory_order_relaxed);
    }

  private:
    struct Slot
    {
        virtual ~Slot() = default;
    };
    template <class Key, class Value>
    struct TypedSlot final : Slot
    {
        explicit TypedSlot(const Key &k) : key(k) {}
        const Key key;
        //! Null while its builder runs; written and read under mu_.
        std::shared_ptr<const Value> value;
    };

    util::Mutex mu_;
    util::CondVar published_;
    std::vector<std::shared_ptr<Slot>> slots_ RMCC_GUARDED_BY(mu_);
    //! Lets clear() skip the lock on the append path of a fresh trace.
    std::atomic<bool> used_{false};
};

} // namespace rmcc::trace

#endif // RMCC_TRACE_TRACE_MEMO_HPP
