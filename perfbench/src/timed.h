// timed.h -- timing adapter tags for record_manager.
//
// record_manager<Scheme, AllocTag, PoolTag, ...> takes each layer as one
// template argument. The tags below wrap a real tag: each bound type
// derives from the real one and shadows only the calls the layer above
// makes into it, bracketing them with the calling thread's tracer. So the
// benchmark times every layer from outside, without touching src/:
//
//   timed_scheme<S> : leave_qstate, enter_qstate, protect, unprotect
//                     (global state); retire, rotate_and_reclaim (per type)
//   timed_pool<P>   : allocate, accept_chain, release
//   timed_alloc<A>  : allocate
//
// The brackets are plain begin()/end() calls, never RAII scopes: under
// DEBRA+ a neutralization may siglongjmp out of the wrapped call, and the
// scheme's prepare_recovery (shadowed below) unwinds the tracer instead.
#pragma once

#include <utility>

#include "trace.h"

namespace perf {

template <class G>
class timed_global : public G {
  public:
    using G::G;

    template <class RotateFn, class PressureFn>
    bool leave_qstate(int tid, RotateFn&& rotate, PressureFn&& pressure) {
        tracer* t = tl_tracer;
        if (t == nullptr) return G::leave_qstate(tid, rotate, pressure);
        t->begin(call::leave_qstate);
        const bool changed = G::leave_qstate(tid, rotate, pressure);
        t->end();
        return changed;
    }

    void enter_qstate(int tid) noexcept {
        tracer* t = tl_tracer;
        if (t == nullptr) return G::enter_qstate(tid);
        t->begin(call::enter_qstate);
        G::enter_qstate(tid);
        t->end();
    }

    template <class ValidateFn>
    bool protect(int tid, const void* p, ValidateFn&& validate) {
        tracer* t = tl_tracer;
        if (t == nullptr) {
            return G::protect(tid, p, std::forward<ValidateFn>(validate));
        }
        t->begin(call::protect);
        const bool ok = G::protect(tid, p, std::forward<ValidateFn>(validate));
        t->end();
        if (!ok) t->note_protect_failure();
        return ok;
    }

    void unprotect(int tid, const void* p) noexcept {
        tracer* t = tl_tracer;
        if (t == nullptr) return G::unprotect(tid, p);
        t->begin(call::unprotect);
        G::unprotect(tid, p);
        t->end();
    }

    /// Crash-recovery schemes only: the body was cut short, so the spans
    /// it left open are discarded before recovery runs.
    void prepare_recovery(int tid) noexcept {
        if (tracer* t = tl_tracer) t->unwind();
        G::prepare_recovery(tid);
    }
};

template <class R>
class timed_per_type : public R {
  public:
    using R::R;

    template <class T>
    void retire(int tid, T* p) {
        tracer* t = tl_tracer;
        if (t == nullptr) return R::retire(tid, p);
        t->begin(call::retire);
        R::retire(tid, p);
        t->end();
    }

    void rotate_and_reclaim(int tid) {
        tracer* t = tl_tracer;
        if (t == nullptr) return R::rotate_and_reclaim(tid);
        t->begin(call::rotate);
        R::rotate_and_reclaim(tid);
        t->end();
    }
};

/// Scheme tag: inherits the real tag's traits, config and default_config,
/// and swaps in the timed global and per-type state.
template <class S>
struct timed_scheme : S {
    using global_state = timed_global<typename S::global_state>;
    template <class T, class Pool, int B>
    using per_type = timed_per_type<typename S::template per_type<T, Pool, B>>;
};

template <class P>
struct timed_pool {
    static constexpr const char* name = P::name;

    template <class T, class Alloc, int B>
    class bind : public P::template bind<T, Alloc, B> {
        using base = typename P::template bind<T, Alloc, B>;

      public:
        using base::base;

        T* allocate(int tid) {
            tracer* t = tl_tracer;
            if (t == nullptr) return base::allocate(tid);
            t->begin(call::pool_allocate);
            T* p = base::allocate(tid);
            t->end();
            return p;
        }

        void accept_chain(int tid, typename base::chain_t chain) {
            tracer* t = tl_tracer;
            if (t == nullptr) return base::accept_chain(tid, chain);
            t->begin(call::pool_accept_chain);
            base::accept_chain(tid, chain);
            t->end();
        }

        void release(int tid, T* p) {
            tracer* t = tl_tracer;
            if (t == nullptr) return base::release(tid, p);
            t->begin(call::pool_release);
            base::release(tid, p);
            t->end();
        }
    };
};

template <class A>
struct timed_alloc {
    static constexpr const char* name = A::name;

    template <class T>
    class bind : public A::template bind<T> {
        using base = typename A::template bind<T>;

      public:
        using base::base;

        T* allocate(int tid) {
            tracer* t = tl_tracer;
            if (t == nullptr) return base::allocate(tid);
            t->begin(call::alloc_allocate);
            T* p = base::allocate(tid);
            t->end();
            return p;
        }
    };
};

}  // namespace perf
