// blockbag.h -- an unordered bag of record pointers stored in blocks.
//
// This is the workhorse container of the reclamation schemes: limbo bags
// (records waiting out their grace period) and pool bags (records ready for
// reuse) are both blockbags. The structure is a singly-linked list of blocks
// with the invariant from the paper: the head block always holds fewer than
// B records, and every subsequent block holds exactly B. That invariant
// makes add, remove, and "shed every full block" all O(1) pointer surgery.
//
// Blockbags are strictly single-threaded; cross-thread record movement
// happens by detaching full blocks and pushing them through a
// shared_blockbag (see pool_perthread_shared).
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>

#include "block.h"
#include "block_pool.h"

namespace smr::mem {

template <class T, int B = DEFAULT_BLOCK_SIZE>
class blockbag {
  public:
    using block_t = block<T, B>;
    using chain_t = block_chain<T, B>;

    /// The bag borrows `bpool` for block storage; both must outlive it.
    explicit blockbag(block_pool<T, B>& bpool)
        : bpool_(bpool), head_(bpool.acquire()), blocks_(1) {}

    blockbag(const blockbag&) = delete;
    blockbag& operator=(const blockbag&) = delete;

    ~blockbag() {
        // Record pointers are not owned by the bag; callers drain live
        // records before destruction. Blocks go back to the block pool.
        while (head_ != nullptr) {
            block_t* b = head_;
            head_ = b->next_relaxed();
            bpool_.release(b);
        }
    }

    bool empty() const noexcept { return blocks_ == 1 && head_->empty(); }

    /// Number of records currently in the bag.
    long long size() const noexcept {
        return static_cast<long long>(blocks_ - 1) * B + head_->size;
    }

    /// Number of blocks, counting the (possibly empty) head block.
    int size_in_blocks() const noexcept { return blocks_; }

    /// O(1): appends a record. May pull one block from the block pool.
    void add(T* p) {
        head_->push(p);
        if (head_->full()) {
            block_t* fresh = bpool_.acquire();
            fresh->set_next(head_);
            head_ = fresh;
            ++blocks_;
        }
    }

    /// O(1): removes and returns an arbitrary record, or nullptr when empty.
    T* remove() noexcept {
        if (head_->empty()) {
            if (head_->next_relaxed() == nullptr) return nullptr;
            block_t* old = head_;
            head_ = old->next_relaxed();
            --blocks_;
            bpool_.release(old);
        }
        return head_->pop();
    }

    /// O(1) unhook + O(chain) tail walk: detaches every full block (all
    /// blocks except the head) and returns them as a chain. Used by the
    /// epoch limbo rotation to hand an entire epoch's retirees to the pool.
    chain_t take_full_blocks() noexcept {
        chain_t c;
        c.head = head_->next_relaxed();
        if (c.head == nullptr) return c;
        head_->set_next(nullptr);
        c.count = blocks_ - 1;
        blocks_ = 1;
        c.tail = c.head;
        while (c.tail->next_relaxed() != nullptr) c.tail = c.tail->next_relaxed();
        return c;
    }

    /// Inserts one full block directly after the head. Used by pools
    /// adopting donated blocks.
    void add_full_block(block_t* b) noexcept {
        assert(b->full());
        b->set_next(head_->next_relaxed());
        head_->set_next(b);
        ++blocks_;
    }

    /// Removes one full block (the one after the head), or nullptr if the
    /// bag holds no full block. Used by pools donating to the shared bag.
    block_t* pop_full_block() noexcept {
        block_t* b = head_->next_relaxed();
        if (b == nullptr) return nullptr;
        head_->set_next(b->next_relaxed());
        b->set_next(nullptr);
        --blocks_;
        return b;
    }

    // ---- iteration & the partition pass (scanning reclaimers) -----------

    /// Forward iterator over records. Also records its block ordinal so the
    /// bag can compute, in O(1), how many blocks lie strictly after it.
    class iterator {
      public:
        iterator() = default;
        iterator(block_t* b, int i, int ord) noexcept
            : b_(b), i_(i), ord_(ord) {
            normalize();
        }

        T*& operator*() const noexcept { return b_->entries[i_]; }

        iterator& operator++() noexcept {
            ++i_;
            normalize();
            return *this;
        }

        bool operator==(const iterator& o) const noexcept {
            return b_ == o.b_ && i_ == o.i_;
        }
        bool operator!=(const iterator& o) const noexcept {
            return !(*this == o);
        }

        block_t* current_block() const noexcept { return b_; }
        int block_ordinal() const noexcept { return ord_; }

        friend void swap_entries(const iterator& a, const iterator& b) noexcept {
            std::swap(a.b_->entries[a.i_], b.b_->entries[b.i_]);
        }

      private:
        void normalize() noexcept {
            // Only the head block can be non-full, so at most one hop.
            while (b_ != nullptr && i_ >= b_->size) {
                b_ = b_->next_relaxed();
                i_ = 0;
                ++ord_;
            }
            if (b_ == nullptr) { i_ = 0; ord_ = 0; }
        }

        block_t* b_ = nullptr;
        int i_ = 0;
        int ord_ = 0;
    };

    iterator begin() const noexcept { return iterator(head_, 0, 0); }
    iterator end() const noexcept { return iterator(nullptr, 0, 0); }

    /// Detaches all blocks strictly after the block `it` points into and
    /// returns them as a chain. With `it` positioned one past the last
    /// kept record (see take_unkept_blocks), every record in the returned
    /// chain is safe to reclaim. When `it == end()` nothing is
    /// detached. O(chain) for the tail walk the consumer needs anyway.
    chain_t take_blocks_after(const iterator& it) noexcept {
        chain_t c;
        block_t* boundary = it.current_block();
        if (boundary == nullptr) return c;  // end(): keep everything
        c.head = boundary->next_relaxed();
        if (c.head == nullptr) return c;
        boundary->set_next(nullptr);
        c.count = blocks_ - (it.block_ordinal() + 1);
        blocks_ = it.block_ordinal() + 1;
        c.tail = c.head;
        while (c.tail->next_relaxed() != nullptr) c.tail = c.tail->next_relaxed();
        return c;
    }

    /// The partition pass of every scanning reclaimer (the HP, HE and IBR
    /// retire scans and DEBRA+'s rotation): moves each record `keep`
    /// accepts to the front of the bag, then detaches and returns every
    /// full block after the last kept record. Kept records stay in the bag;
    /// every record in the returned chain was rejected by `keep`. O(size).
    template <class Keep>
    chain_t take_unkept_blocks(Keep&& keep) {
        iterator kept = begin();
        for (iterator it = begin(), e = end(); it != e; ++it) {
            if (keep(*it)) {
                swap_entries(it, kept);
                ++kept;
            }
        }
        // With nothing kept, `kept` still points *into* the first non-empty
        // block; shed every full block then rather than sparing one.
        return kept == begin() ? take_full_blocks() : take_blocks_after(kept);
    }

  private:
    block_pool<T, B>& bpool_;
    block_t* head_;
    int blocks_;
};

}  // namespace smr::mem
