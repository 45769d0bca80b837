// limbo_bags.h -- the two per-thread limbo disciplines every reclamation
// scheme's per-type state is built from.
//
//   * limbo_bags -- three-epoch rotation (paper Section 4). Each thread keeps
//     three private blockbags. At any moment one of them is the current bag;
//     retire() appends to it in O(1). When the thread's epoch announcement
//     changes, the bags rotate: the oldest bag -- whose records have now
//     survived two epoch changes, hence a full grace period -- becomes the
//     new current bag, and its full blocks move wholesale to the pool. Used
//     verbatim by DEBRA and classic EBR; DEBRA+ replaces the wholesale move
//     with the RProtect partition pass (reclaimer_debra_plus.h).
//   * scan_limbo -- retire-driven scan (paper Section 3, "Hazard Pointers").
//     One bag per thread; when it reaches the scheme's scan threshold the
//     thread snapshots every reservation and frees every record no
//     reservation covers. HP, Hazard Eras and IBR differ only in the
//     snapshot they supply.
//
// Reclamation always moves whole blocks to the pool: the plain rotation
// sheds the oldest bag's full blocks, and every scan (DEBRA+'s rotation
// included) sheds the full blocks after the partition point, through the
// one partition pass in blockbag::take_unkept_blocks.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "../mem/block_pool.h"
#include "../mem/blockbag.h"
#include "../obs/event_ring.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"

namespace smr::reclaim {

template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
class limbo_bags {
  public:
    using bag_t = mem::blockbag<T, B>;

    limbo_bags(int num_threads, Pool& pool,
               mem::block_pool_array<T, B>& bpools, debug_stats* stats)
        : num_threads_(num_threads), pool_(pool), stats_(stats) {
        states_.reserve(static_cast<std::size_t>(num_threads));
        for (int t = 0; t < num_threads; ++t)
            states_.push_back(std::make_unique<tstate>(bpools[t]));
    }

    limbo_bags(const limbo_bags&) = delete;
    limbo_bags& operator=(const limbo_bags&) = delete;

    /// Teardown is single-threaded and after all threads quiesced, so every
    /// limbo record is safe: hand them to the pool.
    ~limbo_bags() {
        for (int t = 0; t < num_threads_; ++t) {
            for (auto& bag : states_[t]->bags) {
                while (T* p = bag->remove()) pool_.release(t, p);
            }
        }
    }

    /// O(1): record retired by thread `tid` this epoch.
    void retire(int tid, T* p) {
        if (stats_) stats_->add(tid, stat::records_retired);
        states_[tid]->current().add(p);
    }

    /// Rotate on announcement change; move all full blocks of the (old)
    /// oldest bag to the pool. O(1) plus work proportional to blocks freed.
    void rotate_and_reclaim(int tid) {
        // Stall attribution: the rotation (and the pool hand-off of the
        // freed bag) is the epoch schemes' stop-the-thread moment.
        stall_scope stall(stats_, tid, stall_site::rotation);
        pool_.accept_chain(tid, rotate(tid).take_full_blocks());
    }

    /// Blocks in the current bag -- DEBRA+'s neutralization pressure gauge.
    int current_bag_blocks(int tid) const {
        return states_[tid]->current().size_in_blocks();
    }

    /// Records waiting across all three bags (tests / monitoring).
    long long limbo_size(int tid) const {
        long long sum = 0;
        for (auto& bag : states_[tid]->bags) sum += bag->size();
        return sum;
    }

    long long total_limbo_size() const {
        long long sum = 0;
        for (int t = 0; t < num_threads_; ++t) sum += limbo_size(t);
        return sum;
    }

    bag_t& current_bag(int tid) { return states_[tid]->current(); }

  protected:
    /// Makes the oldest bag current (counted and traced) and returns it;
    /// its records have waited out a full grace period.
    bag_t& rotate(int tid) {
        tstate& st = *states_[tid];
        st.index = (st.index + 1) % 3;
        if (stats_) stats_->add(tid, stat::rotations);
        bag_t& bag = st.current();
        obs::trace_emit(tid, obs::trace_event::limbo_rotation,
                        static_cast<std::uint64_t>(bag.size_in_blocks()));
        return bag;
    }

    struct tstate {
        explicit tstate(mem::block_pool<T, B>& bp) {
            for (auto& b : bags) b = std::make_unique<bag_t>(bp);
        }
        bag_t& current() { return *bags[index]; }
        const bag_t& current() const { return *bags[index]; }

        std::array<std::unique_ptr<bag_t>, 3> bags;
        int index = 0;
    };

    const int num_threads_;
    Pool& pool_;
    debug_stats* stats_;
    std::vector<std::unique_ptr<tstate>> states_;
};

/// Retire-driven per-type bag: HP, Hazard Eras and IBR. `T` is the stored
/// type. `Global` supplies the reservation snapshot -- `Global::snapshot_t s;
/// s.collect(global); s.covers(rec)` -- and the counter a scan bumps,
/// `Global::scan_stat`.
///
/// retire() is O(1); when the bag reaches global.scan_threshold_records()
/// the thread snapshots every reservation and frees every record outside
/// it -- expected amortized O(1) per record, and a limbo bound of
/// scan_threshold + one partial block per thread and type.
template <class T, class Pool, int B, class Global>
class scan_limbo {
  public:
    scan_limbo(int num_threads, Global& global, Pool& pool,
               mem::block_pool_array<T, B>& bpools, debug_stats* stats)
        : num_threads_(num_threads), global_(global), pool_(pool),
          stats_(stats) {
        states_.reserve(static_cast<std::size_t>(num_threads));
        for (int t = 0; t < num_threads; ++t)
            states_.push_back(std::make_unique<tstate>(bpools[t]));
    }

    scan_limbo(const scan_limbo&) = delete;
    scan_limbo& operator=(const scan_limbo&) = delete;

    /// Teardown is single-threaded and after all threads quiesced; every
    /// limbo record is safe.
    ~scan_limbo() {
        for (int t = 0; t < num_threads_; ++t) {
            while (T* p = states_[t]->bag.remove()) pool_.release(t, p);
        }
    }

    void retire(int tid, T* p) {
        if (stats_) stats_->add(tid, stat::records_retired);
        tstate& st = *states_[tid];
        st.bag.add(p);
        if (st.bag.size() >= global_.scan_threshold_records()) scan(tid);
    }

    /// Scan schemes reclaim from retire(); the manager-level rotation hook
    /// is a no-op.
    void rotate_and_reclaim(int) noexcept {}
    int current_bag_blocks(int tid) const {
        return states_[tid]->bag.size_in_blocks();
    }
    long long limbo_size(int tid) const { return states_[tid]->bag.size(); }

    /// Snapshot every reservation and free every record none of them
    /// covers. Public so tests and draining shutdown paths can force a pass.
    /// Cold: kept out of line so the inlined retire() stays small.
    [[gnu::noinline]] void scan(int tid) {
        // Stall attribution: the reservation snapshot + partition is the
        // scan schemes' stop-the-thread pass.
        stall_scope stall(stats_, tid, stall_site::scan_free);
        if (stats_) stats_->add(tid, Global::scan_stat);
        tstate& st = *states_[tid];
        obs::trace_emit(tid, obs::trace_event::scan_free,
                        static_cast<std::uint64_t>(st.bag.size()));
        st.snap.collect(global_);
        pool_.accept_chain(tid, st.bag.take_unkept_blocks([&](T* rec) {
            return st.snap.covers(rec);
        }));
    }

  private:
    struct tstate {
        explicit tstate(mem::block_pool<T, B>& bp) : bag(bp) {}
        mem::blockbag<T, B> bag;
        typename Global::snapshot_t snap;
    };

    const int num_threads_;
    Global& global_;
    Pool& pool_;
    debug_stats* stats_;
    std::vector<std::unique_ptr<tstate>> states_;
};

}  // namespace smr::reclaim
