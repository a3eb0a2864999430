//! Memoization semantics of the compiled-plan cache, the one memo of the
//! sparse dataflow's counts.

use flash_sparse::plan::plan_cache_stats;
use flash_sparse::{SparsePlan, SparsityPattern};
use std::sync::Arc;

#[test]
fn shared_plans_memoize_and_match_compile() {
    // Distinct patterns so this test owns its cache keys even though the
    // memo is process-global.
    let p1 = SparsityPattern::from_indices(256, [0usize, 3, 9, 17, 100]);
    let p2 = SparsityPattern::from_indices(256, [1usize, 2, 250]);

    let before = plan_cache_stats();
    let a1 = SparsePlan::shared(&p1);
    let a1_again = SparsePlan::shared(&p1);
    let a2 = SparsePlan::shared(&p2);
    let after = plan_cache_stats();

    // Same mask -> same Arc, no recompilation; distinct mask -> new entry.
    assert!(
        Arc::ptr_eq(&a1, &a1_again),
        "repeat lookup must hit the memo"
    );
    assert!(!Arc::ptr_eq(&a1, &a2));
    assert!(after.hits > before.hits, "expected a recorded cache hit");
    assert!(after.misses >= before.misses + 2);

    // Interned plans count exactly what a fresh compile counts.
    for (shared, p) in [(&a1, &p1), (&a2, &p2)] {
        let fresh = SparsePlan::compile(p);
        assert_eq!(shared.counts(), fresh.counts());
        assert_eq!(shared.profile(), fresh.profile());
        assert_eq!(shared.muls(), fresh.muls());
        assert_eq!(shared.tape_len(), fresh.tape_len());
    }
}

#[test]
fn patterns_differing_only_in_length_do_not_collide() {
    // Same set bits, different pattern lengths: the digest must keep the
    // exact length so a 64-slot and a 128-slot network never share a
    // plan.
    let short = SparsityPattern::from_indices(64, [0usize, 5, 9]);
    let long = SparsityPattern::from_indices(128, [0usize, 5, 9]);
    let a = SparsePlan::shared(&short);
    let b = SparsePlan::shared(&long);
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(a.counts().m, 64);
    assert_eq!(b.counts().m, 128);
}
