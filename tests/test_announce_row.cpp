// Tests for the announcement row shared by Hazard Pointers and Hazard Eras
// (src/reclaim/announce_row.h): the owner's lo/hi slot cursor, chunk
// growth, and the scanner's walk over every chunk. Each case runs through
// both schemes' protect/unprotect, so the row is checked with addresses
// and with eras as its words.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "reclaim/era/reclaimer_he.h"
#include "reclaim/reclaimer_hp.h"
#include "recordmgr/record_manager.h"

namespace smr {
namespace {

struct rec {
    long v;
};

/// Slots per row chunk (the same for either word type).
constexpr int K = reclaim::detail::hp_global::K;

/// HP: every protect takes a slot of its own, and the scan must see the
/// record's address.
struct hp_case {
    using mgr_t =
        record_manager<reclaim::reclaim_hp, alloc_malloc, pool_shared, rec>;
    using snapshot_t = reclaim::detail::hp_global::snapshot_t;
    using probe_t = const void*;
    static mgr_t::config_t config() { return {}; }
    static void step(mgr_t&) {}
    static probe_t probe(mgr_t&, rec* r) { return r; }
    static const void* covered(const probe_t& p) { return p; }
};

/// HE: with era_freq = 1, step() retires one record, which advances the
/// era, so the next protect publishes into a slot of its own as under HP.
/// The scan must see the era that was current when the record was
/// protected, i.e. cover an interval [e, e].
struct he_case {
    using mgr_t =
        record_manager<reclaim::reclaim_he, alloc_malloc, pool_shared, rec>;
    using snapshot_t = reclaim::detail::he_global::snapshot_t;
    struct probe_t {
        std::uint64_t birth_era;
        std::uint64_t retire_era;
    };
    static mgr_t::config_t config() {
        mgr_t::config_t cfg;
        cfg.era_freq = 1;
        return cfg;
    }
    static void step(mgr_t& mgr) {
        mgr.retire<rec>(0, mgr.new_record<rec>(0));
    }
    static probe_t probe(mgr_t& mgr, rec*) {
        const std::uint64_t e = mgr.global().clock().current();
        return {e, e};
    }
    static const probe_t* covered(const probe_t& p) { return &p; }
};

template <class Case>
class AnnounceRow : public ::testing::Test {
  protected:
    using mgr_t = typename Case::mgr_t;

    void SetUp() override { mgr.init_thread(0); }
    void TearDown() override { mgr.deinit_thread(0); }

    /// One protection in the scheme's own slot-taking shape (see the
    /// cases); remembers what the scan must see for r.
    template <class ValidateFn>
    bool protect(rec* r, ValidateFn&& validate) {
        Case::step(mgr);
        const bool ok = mgr.protect(0, r, validate);
        if (ok) probes.insert_or_assign(r, Case::probe(mgr, r));
        return ok;
    }
    bool protect(rec* r) {
        return protect(r, [] { return true; });
    }

    /// Whether a scan's snapshot, taken now, covers r as last protected.
    bool scan_sees(rec* r) {
        typename Case::snapshot_t snap;
        snap.collect(mgr.global());
        return snap.covers(Case::covered(probes.at(r)));
    }

    mgr_t mgr{1, Case::config()};
    std::map<rec*, typename Case::probe_t> probes;
};

using cases = ::testing::Types<hp_case, he_case>;
TYPED_TEST_SUITE(AnnounceRow, cases);

TYPED_TEST(AnnounceRow, ManySlotsUsableSimultaneously) {
    auto& mgr = this->mgr;
    std::vector<rec*> recs;
    for (int i = 0; i < K; ++i) {
        rec* r = mgr.template new_record<rec>(0);
        recs.push_back(r);
        EXPECT_TRUE(this->protect(r));
    }
    for (rec* r : recs) EXPECT_TRUE(mgr.is_protected(0, r));
    mgr.enter_qstate(0);
    for (rec* r : recs) mgr.template deallocate<rec>(0, r);
}

TYPED_TEST(AnnounceRow, HandOverHandNeverGrowsTheChain) {
    // The search shape: hold a window of three (gp, p, l), admit the next
    // record, drop the oldest -- releases are FIFO, not LIFO. Ten thousand
    // steps must keep reusing the base chunk.
    auto& mgr = this->mgr;
    const std::size_t base = mgr.global().max_hazards();
    std::vector<rec> recs(16);
    std::deque<rec*> held;
    for (int step = 0; step < 10000; ++step) {
        rec* r = &recs[static_cast<std::size_t>(step) % recs.size()];
        ASSERT_TRUE(this->protect(r));
        held.push_back(r);
        if (held.size() > 3) {
            mgr.unprotect(0, held.front());
            EXPECT_FALSE(mgr.is_protected(0, held.front()));
            held.pop_front();
        }
    }
    EXPECT_EQ(mgr.global().max_hazards(), base);
    for (rec* r : held) EXPECT_TRUE(this->scan_sees(r));
    mgr.enter_qstate(0);
    for (rec& r : recs) EXPECT_FALSE(mgr.is_protected(0, &r));
}

TYPED_TEST(AnnounceRow, MoreThanKProtectionsAppendAChunk) {
    auto& mgr = this->mgr;
    const std::size_t base = mgr.global().max_hazards();
    std::vector<rec> recs(K + 1);
    for (rec& r : recs) ASSERT_TRUE(this->protect(&r));
    EXPECT_EQ(mgr.global().max_hazards(), base + K);
    for (rec& r : recs) EXPECT_TRUE(this->scan_sees(&r));
    // Oldest first: every release still finds its slot.
    for (rec& r : recs) mgr.unprotect(0, &r);
    for (rec& r : recs) EXPECT_FALSE(mgr.is_protected(0, &r));
    // The grown chain is reused, never extended again for the same load.
    for (rec& r : recs) ASSERT_TRUE(this->protect(&r));
    EXPECT_EQ(mgr.global().max_hazards(), base + K);
    mgr.enter_qstate(0);
    for (rec& r : recs) EXPECT_FALSE(mgr.is_protected(0, &r));
}

TYPED_TEST(AnnounceRow, FailedValidationFreesSlotAndCursor) {
    // Fill all but the last slot of the base chunk, then fail a validation
    // in that last slot. The slot and the cursor must both come back: the
    // next protect lands there instead of appending a chunk.
    auto& mgr = this->mgr;
    const std::size_t base = mgr.global().max_hazards();
    std::vector<rec> recs(K + 1);
    for (int i = 0; i < K - 1; ++i) {
        ASSERT_TRUE(this->protect(&recs[static_cast<std::size_t>(i)]));
    }
    rec* rejected = &recs[K - 1];
    EXPECT_FALSE(this->protect(rejected, [] { return false; }));
    EXPECT_FALSE(mgr.is_protected(0, rejected));
    ASSERT_TRUE(this->protect(&recs[K]));
    EXPECT_EQ(mgr.global().max_hazards(), base);
    // Now K are live: one more needs a second chunk.
    ASSERT_TRUE(this->protect(rejected));
    EXPECT_EQ(mgr.global().max_hazards(), base + K);
    for (rec& r : recs) EXPECT_TRUE(this->scan_sees(&r));
    mgr.enter_qstate(0);
}

}  // namespace
}  // namespace smr
