/**
 * @file
 * OwnerMemo: a value computed once per shared object, keyed on the
 * object's shared_ptr *ownership* (std::owner_less over std::weak_ptr),
 * not on its address.
 *
 *  - The key is weak: an entry never keeps its object alive. Entries
 *    whose object has died are dropped on the next get(), so a dead
 *    object's value is released at the next use of the memo.
 *  - A recycled address cannot hit: while an entry exists its weak key
 *    pins the object's control block, so no new object can share it.
 *  - Concurrent first uses compute once: later callers block on the
 *    entry's std::once_flag until the first computation finishes. A
 *    computation that throws leaves the entry empty; the next get()
 *    retries it.
 *
 * The memo cannot see mutation: the object behind a key must not change
 * after its first get(). Aliasing shared_ptrs share their owner's key.
 */

#ifndef MXLISP_SUPPORT_OWNER_MEMO_H_
#define MXLISP_SUPPORT_OWNER_MEMO_H_

#include <map>
#include <memory>
#include <mutex>

namespace mxl {

template <class K, class V>
class OwnerMemo
{
  public:
    /**
     * The value memoized for @p key's object; computed by @p compute
     * (a callable returning V) on the object's first use only.
     */
    template <class F>
    V
    get(const std::shared_ptr<K> &key, F &&compute)
    {
        std::shared_ptr<Slot> slot;
        {
            std::lock_guard<std::mutex> lk(mu_);
            std::erase_if(map_,
                          [](const auto &e) { return e.first.expired(); });
            std::shared_ptr<Slot> &s = map_[std::weak_ptr<K>(key)];
            if (!s)
                s = std::make_shared<Slot>();
            slot = s;
        }
        std::call_once(slot->once, [&] { slot->value = compute(); });
        return slot->value;
    }

  private:
    struct Slot
    {
        std::once_flag once;
        V value{};
    };

    std::mutex mu_; ///< guards map_
    std::map<std::weak_ptr<K>, std::shared_ptr<Slot>,
             std::owner_less<std::weak_ptr<K>>>
        map_;
};

} // namespace mxl

#endif // MXLISP_SUPPORT_OWNER_MEMO_H_
