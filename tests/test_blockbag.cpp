// Tests for the block-structured bag (src/mem/blockbag.h), including the
// head-block invariant and the partition pass every scanning reclaimer
// (HP, HE, IBR, DEBRA+) frees through.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "mem/block_pool.h"
#include "mem/blockbag.h"

namespace smr::mem {
namespace {

struct rec {
    long v;
};

class BlockbagTest : public ::testing::Test {
  protected:
    static constexpr int B = 4;  // small blocks make invariants easy to hit
    block_pool<rec, B> pool_{64, nullptr, 0};

    std::vector<rec> make_recs(int n) {
        std::vector<rec> v(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)].v = i;
        return v;
    }

    /// Checks every shed block is full and holds only records `v >= min_v`,
    /// returns the blocks to the pool and the number of records shed.
    long long release_chain(block_chain<rec, B> chain, long min_v) {
        long long shed = 0;
        for (auto* b = chain.head; b != nullptr;) {
            EXPECT_TRUE(b->full());
            shed += b->size;
            for (int i = 0; i < b->size; ++i)
                EXPECT_GE(b->entries[i]->v, min_v);
            auto* next = b->next_relaxed();
            b->size = 0;
            pool_.release(b);
            b = next;
        }
        return shed;
    }
};

TEST_F(BlockbagTest, StartsEmpty) {
    blockbag<rec, B> bag(pool_);
    EXPECT_TRUE(bag.empty());
    EXPECT_EQ(bag.size(), 0);
    EXPECT_EQ(bag.size_in_blocks(), 1);  // the (empty) head block
    EXPECT_EQ(bag.remove(), nullptr);
}

TEST_F(BlockbagTest, AddRemoveSingle) {
    blockbag<rec, B> bag(pool_);
    rec r{7};
    bag.add(&r);
    EXPECT_FALSE(bag.empty());
    EXPECT_EQ(bag.size(), 1);
    EXPECT_EQ(bag.remove(), &r);
    EXPECT_TRUE(bag.empty());
}

TEST_F(BlockbagTest, SizeTracksManyAdds) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(100);
    for (auto& r : recs) bag.add(&r);
    EXPECT_EQ(bag.size(), 100);
    long long removed = 0;
    while (bag.remove() != nullptr) ++removed;
    EXPECT_EQ(removed, 100);
}

TEST_F(BlockbagTest, HeadBlockInvariant) {
    // The head block is always non-full; subsequent blocks are always full.
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(3 * B);
    for (int i = 0; i < 3 * B; ++i) {
        bag.add(&recs[static_cast<std::size_t>(i)]);
        // size() must be consistent with the block invariant:
        // (blocks-1)*B + head_size where head_size in [0, B).
        const long long sz = bag.size();
        const int blocks = bag.size_in_blocks();
        EXPECT_EQ(sz, i + 1);
        EXPECT_GE(sz, static_cast<long long>(blocks - 1) * B);
        EXPECT_LT(sz - static_cast<long long>(blocks - 1) * B, B);
    }
}

TEST_F(BlockbagTest, RemoveReturnsEveryAddedRecordOnce) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(37);
    std::set<rec*> expected;
    for (auto& r : recs) {
        bag.add(&r);
        expected.insert(&r);
    }
    std::set<rec*> got;
    while (rec* p = bag.remove()) EXPECT_TRUE(got.insert(p).second);
    EXPECT_EQ(got, expected);
}

TEST_F(BlockbagTest, TakeFullBlocksLeavesHead) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(3 * B + 2);
    for (auto& r : recs) bag.add(&r);
    EXPECT_EQ(bag.size_in_blocks(), 4);
    auto chain = bag.take_full_blocks();
    EXPECT_EQ(chain.count, 3);
    EXPECT_EQ(bag.size_in_blocks(), 1);
    EXPECT_EQ(bag.size(), 2);  // leftovers in the head block
    // Chain holds the other 3*B records, all full blocks.
    int chained = 0;
    for (auto* b = chain.head; b != nullptr; b = b->next_relaxed()) {
        EXPECT_TRUE(b->full());
        chained += b->size;
        if (b->next_relaxed() == nullptr) { EXPECT_EQ(b, chain.tail); }
    }
    EXPECT_EQ(chained, 3 * B);
    // Return blocks to the pool to avoid leaking them.
    for (auto* b = chain.head; b != nullptr;) {
        auto* next = b->next_relaxed();
        b->size = 0;
        pool_.release(b);
        b = next;
    }
}

TEST_F(BlockbagTest, TakeFullBlocksOnEmptyBag) {
    blockbag<rec, B> bag(pool_);
    auto chain = bag.take_full_blocks();
    EXPECT_TRUE(chain.empty());
    EXPECT_EQ(chain.count, 0);
}

TEST_F(BlockbagTest, AddAndPopFullBlock) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(B);
    auto* blk = pool_.acquire();
    for (auto& r : recs) blk->push(&r);
    EXPECT_TRUE(blk->full());
    bag.add_full_block(blk);
    EXPECT_EQ(bag.size(), B);
    EXPECT_EQ(bag.size_in_blocks(), 2);
    auto* popped = bag.pop_full_block();
    EXPECT_EQ(popped, blk);
    EXPECT_EQ(bag.size(), 0);
    EXPECT_EQ(bag.pop_full_block(), nullptr);
    blk->size = 0;
    pool_.release(blk);
}

TEST_F(BlockbagTest, IterationVisitsEveryRecord) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(2 * B + 3);
    std::set<rec*> expected;
    for (auto& r : recs) {
        bag.add(&r);
        expected.insert(&r);
    }
    std::set<rec*> seen;
    for (auto it = bag.begin(); it != bag.end(); ++it) {
        EXPECT_TRUE(seen.insert(*it).second);
    }
    EXPECT_EQ(seen, expected);
}

TEST_F(BlockbagTest, IterationOnEmptyBag) {
    blockbag<rec, B> bag(pool_);
    EXPECT_EQ(bag.begin(), bag.end());
}

TEST_F(BlockbagTest, SwapEntriesExchangesRecords) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(B + 2);
    for (auto& r : recs) bag.add(&r);
    auto it1 = bag.begin();
    auto it2 = bag.begin();
    ++it2;
    rec* a = *it1;
    rec* b = *it2;
    swap_entries(it1, it2);
    EXPECT_EQ(*it1, b);
    EXPECT_EQ(*it2, a);
}

TEST_F(BlockbagTest, TakeBlocksAfterPartitionPoint) {
    // The scanning reclaimers' pass: partition kept ("protected") records to
    // the front, then shed every full block after the boundary.
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(4 * B);
    for (auto& r : recs) bag.add(&r);
    const long long before = bag.size();
    // Pretend the v < 3 records are hazard-protected.
    auto chain = bag.take_unkept_blocks([](rec* r) { return r->v < 3; });
    // Everything sheds except the blocks up to the partition point.
    const long long shed = release_chain(chain, 3);
    EXPECT_GT(shed, 0);
    EXPECT_EQ(bag.size() + shed, before);
    // All protected records are still in the bag.
    int still_protected = 0;
    for (auto it = bag.begin(); it != bag.end(); ++it) {
        if ((*it)->v < 3) ++still_protected;
    }
    EXPECT_EQ(still_protected, 3);
}

TEST_F(BlockbagTest, TakeUnkeptBlocksNothingKeptShedsEveryFullBlock) {
    // Nothing kept must not spare the first full block, also when the head
    // block is empty and the partition point lands inside that full block:
    // every full block sheds and only the head block stays.
    for (const int in_head : {0, 2}) {
        SCOPED_TRACE(in_head);
        blockbag<rec, B> bag(pool_);
        auto recs = make_recs(4 * B + in_head);
        for (auto& r : recs) bag.add(&r);
        auto chain = bag.take_unkept_blocks([](rec*) { return false; });
        EXPECT_EQ(chain.count, 4);
        EXPECT_EQ(release_chain(chain, 0), 4 * B);
        EXPECT_EQ(bag.size_in_blocks(), 1);
        EXPECT_EQ(bag.size(), in_head);
    }
}

TEST_F(BlockbagTest, TakeUnkeptBlocksEverythingKeptShedsNothing) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(3 * B + 1);
    for (auto& r : recs) bag.add(&r);
    auto chain = bag.take_unkept_blocks([](rec*) { return true; });
    EXPECT_TRUE(chain.empty());
    EXPECT_EQ(bag.size(), 3 * B + 1);
    EXPECT_EQ(bag.size_in_blocks(), 4);
    std::set<rec*> seen;
    for (auto it = bag.begin(); it != bag.end(); ++it) seen.insert(*it);
    EXPECT_EQ(seen.size(), recs.size());
}

TEST_F(BlockbagTest, TakeBlocksAfterEndKeepsEverything) {
    blockbag<rec, B> bag(pool_);
    auto recs = make_recs(2 * B);
    for (auto& r : recs) bag.add(&r);
    auto chain = bag.take_blocks_after(bag.end());
    EXPECT_TRUE(chain.empty());
    EXPECT_EQ(bag.size(), 2 * B);
}

// Property sweep: for many (adds, removes) interleavings the bag behaves
// like a multiset of pointers and maintains the block invariant.
class BlockbagProperty : public ::testing::TestWithParam<int> {};

TEST_P(BlockbagProperty, RandomizedMultisetBehaviour) {
    const int seed = GetParam();
    block_pool<rec, 4> pool(64, nullptr, 0);
    blockbag<rec, 4> bag(pool);
    std::vector<rec> storage(512);
    std::multiset<rec*> model;
    std::uint64_t rng = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    std::size_t next_rec = 0;
    for (int step = 0; step < 2000; ++step) {
        if (next() % 2 == 0 && next_rec < storage.size()) {
            rec* p = &storage[next_rec++];
            bag.add(p);
            model.insert(p);
        } else {
            rec* p = bag.remove();
            if (p == nullptr) {
                EXPECT_TRUE(model.empty());
            } else {
                auto it = model.find(p);
                ASSERT_NE(it, model.end());
                model.erase(it);
            }
        }
        EXPECT_EQ(bag.size(), static_cast<long long>(model.size()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockbagProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace smr::mem
