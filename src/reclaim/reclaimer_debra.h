// reclaimer_debra.h -- DEBRA: distributed epoch based reclamation
// (paper Section 4, Figure 4).
//
// Scheme summary:
//   * private three-epoch limbo bags per thread (limbo_bags.h);
//   * one announcement word per thread, quiescent bit in the LSB;
//   * announcements of other threads are checked incrementally, one every
//     CHECK_THRESH operations (epoch_core.h);
//   * epoch increments by CAS, throttled by INCR_THRESH;
//   * retire/leaveQstate/enterQstate are all worst-case O(1).
//
// Partial fault tolerance: a thread that sleeps or dies while *quiescent*
// never blocks reclamation (its quiescent bit satisfies the scan). A thread
// stalled inside an operation does block it -- fixing that is DEBRA+'s job.
#pragma once

#include "../mem/block_pool.h"
#include "../util/debug_stats.h"
#include "epoch_core.h"
#include "limbo_bags.h"

namespace smr::reclaim {

namespace detail {

/// Epoch-scheme global state without neutralization: protect/unprotect are
/// free (compile to constants), crash-recovery hooks are inert.
class debra_global {
  public:
    using config = epoch_config;

    debra_global(int num_threads, const config& cfg, debug_stats* stats)
        : core_(num_threads, cfg, stats) {}

    void init_thread(int) noexcept {}
    void deinit_thread(int) noexcept {}

    template <class RotateFn, class PressureFn>
    bool leave_qstate(int tid, RotateFn&& rotate, PressureFn&&) {
        return core_.leave_qstate(tid, rotate, [](int) { return false; });
    }
    void enter_qstate(int tid) noexcept { core_.enter_qstate(tid); }
    bool is_quiescent(int tid) const noexcept { return core_.is_quiescent(tid); }
    void clear_hazards(int) noexcept {}  // no per-access state to clear

    /// Epoch protection covers every record reachable during the operation;
    /// no per-record work (the compiler erases these calls entirely).
    template <class ValidateFn>
    bool protect(int, const void*, ValidateFn&&) noexcept {
        return true;
    }
    void unprotect(int, const void*) noexcept {}
    bool is_protected(int, const void*) const noexcept { return true; }

    bool rprotect(int, const void*) noexcept { return true; }
    void runprotect_all(int) noexcept {}
    bool is_rprotected(int, const void*) const noexcept { return false; }

    std::uint64_t read_epoch() const noexcept { return core_.read_epoch(); }
    int num_threads() const noexcept { return core_.num_threads(); }

  private:
    epoch_core core_;
};

}  // namespace detail

struct reclaim_debra {
    static constexpr const char* name = "debra";
    static constexpr bool supports_crash_recovery = false;
    static constexpr bool is_fault_tolerant = false;
    static constexpr bool quiescence_based = true;
    static constexpr bool per_access_protection = false;

    using config = detail::debra_global::config;
    using global_state = detail::debra_global;

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    class per_type : public limbo_bags<T, Pool, B> {
      public:
        per_type(int num_threads, global_state&, Pool& pool,
                 mem::block_pool_array<T, B>& bpools, debug_stats* stats)
            : limbo_bags<T, Pool, B>(num_threads, pool, bpools, stats) {}
    };
};

/// Classic epoch based reclamation (Fraser), expressed as DEBRA minus its
/// optimizations: every leaveQstate scans announcements until blocked
/// (O(n) per operation) and the epoch advances as soon as the scan
/// completes. Serves as the paper's EBR baseline and as the ablation that
/// isolates what DEBRA's distribution buys.
struct reclaim_ebr {
    static constexpr const char* name = "ebr";
    static constexpr bool supports_crash_recovery = false;
    static constexpr bool is_fault_tolerant = false;
    static constexpr bool quiescence_based = true;
    static constexpr bool per_access_protection = false;

    using config = detail::debra_global::config;
    using global_state = detail::debra_global;

    /// EBR-flavoured defaults for epoch_config.
    static config default_config() {
        config c;
        c.check_thresh = 1;
        c.incr_thresh = 1;
        c.scan_all_per_op = true;
        return c;
    }

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    using per_type = reclaim_debra::per_type<T, Pool, B>;
};

}  // namespace smr::reclaim
